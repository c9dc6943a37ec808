package core

import (
	"fmt"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/replan"
)

// This file is the mechanism half of adaptive re-planning (the policy lives
// in internal/replan): detecting that a registration's frozen decomposition
// has drifted away from what the live statistics would produce, and
// hot-swapping the registration onto a fresh plan without losing or
// duplicating a single match.
//
// The swap (mqo.DAG.Swap) works because two invariants already hold:
//
//  1. The dynamic graph retains every edge that can still participate in a
//     match (retention is never narrower than the widest query window), so
//     backfilling the plan's new DAG nodes from the retained window rebuilds
//     exactly the partial-match state the new plan needs; nodes the new plan
//     shares with the old one, or with other queries, keep theirs.
//  2. A backfill delivers nothing. Every match it derives reads only edges
//     already in the window, so the old plan, which was exact, sent it when
//     its last edge arrived (or it predates the query); a match is delivered
//     only from the edge that completes it, so one that completes after the
//     swap is emitted exactly once, by the new plan.

// replanAuditRing bounds how many drift-check audit records a registration
// retains.
const replanAuditRing = 8

// ReplanAudit records one adaptive drift-check decision — fired or declined
// — with the evidence it was made on: the frozen and fresh plan costs under
// the engine's estimator and the detector's ratio (what each DAG node has
// observed is in Metrics.MQO.PerNode). The last replanAuditRing records are
// retained per registration and the newest is surfaced through
// QueryMetrics.LastReplanAudit, giving estimator validation something to chew
// on even when the detector never fires.
type ReplanAudit struct {
	Query      string          `json:"query"`
	CheckedAt  graph.Timestamp `json:"checked_at"`
	FrozenCost float64         `json:"frozen_cost"`
	FreshCost  float64         `json:"fresh_cost"`
	Ratio      float64         `json:"ratio"`
	Swapped    bool            `json:"swapped"`
	// PlanGeneration is the generation in force after the decision (a swap
	// increments it).
	PlanGeneration uint64 `json:"plan_generation"`
}

// recordAudit appends a to the registration's audit ring.
func (r *Registration) recordAudit(a ReplanAudit) {
	if len(r.audits) >= replanAuditRing {
		copy(r.audits, r.audits[1:])
		r.audits = r.audits[:len(r.audits)-1]
	}
	r.audits = append(r.audits, a)
}

// maybeReplanAll runs one drift check across all adaptive registrations.
// The trial plan and the cost comparison go through the engine's one
// estimator, the one registration planned with: its statistics are the
// retained window's, which forgets the old regime as fast as its edges
// expire — it is the current selectivity landscape the running plan must
// answer to. Each adaptive registration is swapped when the detector's
// hysteresis fires. Checks are skipped entirely while no edge has been
// processed since the previous check (idle-shard watermark heartbeats).
func (e *Engine) maybeReplanAll() {
	if e.adaptiveCount == 0 {
		return
	}
	total := e.obs.edgesProcessed.Value()
	if total == e.lastReplanTotal {
		return
	}
	e.lastReplanTotal = total
	now := e.dyn.Watermark()
	for _, name := range e.order {
		reg := e.registrations[name]
		if !reg.adaptive {
			continue
		}
		e.obs.replanChecks.Inc()
		fresh, err := e.planner.Plan(reg.query, reg.strategy)
		if err != nil {
			// Planning against the current statistics failed; keep the
			// running plan — it is valid, just possibly stale.
			continue
		}
		if fresh.EqualStructure(reg.plan) {
			continue
		}
		frozenCost := replan.PlanCost(e.est, reg.plan)
		freshCost := replan.PlanCost(e.est, fresh)
		ratio, swap := reg.det.Should(frozenCost, freshCost, total, now)
		audit := ReplanAudit{
			Query:          name,
			CheckedAt:      now,
			FrozenCost:     frozenCost,
			FreshCost:      freshCost,
			Ratio:          ratio,
			Swapped:        swap,
			PlanGeneration: reg.planGen,
		}
		if swap {
			if err := e.swap(reg, fresh); err != nil {
				audit.Swapped = false
			} else {
				reg.det.NoteSwap(now)
				audit.PlanGeneration = reg.planGen
			}
		}
		reg.recordAudit(audit)
	}
}

// ReplanNow forces an immediate plan swap for the named registration: a
// fresh decomposition is computed against the current statistics with the
// given strategy ("" keeps the registration's own) and installed
// unconditionally, bypassing the drift detector. Regression tests and
// operational tooling use it; the periodic tick goes through the detector.
// Like every engine method it must be called from the driving goroutine.
func (e *Engine) ReplanNow(name string, strategy decompose.Strategy) error {
	reg, ok := e.registrations[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownQuery, name)
	}
	s := strategy
	if s == "" {
		s = reg.strategy
	}
	fresh, err := e.planner.Plan(reg.query, s)
	if err != nil {
		return fmt.Errorf("core: re-planning %q: %w", name, err)
	}
	if err := e.swap(reg, fresh); err != nil {
		return err
	}
	reg.det.NoteSwap(e.dyn.Watermark())
	return nil
}

// swap moves reg onto plan through the DAG: the query is re-attached under
// the new plan while the old plan's nodes are still live, so subtrees common
// to both plans — and anything shared with other queries — keep their state
// instead of being rebuilt. Only genuinely new DAG nodes are backfilled from
// the retained window (mqo.DAG.Swap), and the backfill sends nothing: the
// match stream goes on from the next edge, exactly once across the boundary.
func (e *Engine) swap(reg *Registration, plan *decompose.Plan) error {
	att, err := e.dag.Swap(reg.name, plan)
	if err != nil {
		return fmt.Errorf("core: plan swap for %q: %w", reg.name, err)
	}
	reg.att = att
	reg.plan = plan
	reg.planGen++
	reg.replans.Inc()
	e.obs.replans.Inc()
	e.obs.replanEdgesReplayed.Add(att.ReplayedEdges())
	return nil
}
