package core

import (
	"fmt"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/replan"
	"github.com/streamworks/streamworks/internal/sjtree"
	"github.com/streamworks/streamworks/internal/stats"
)

// This file is the mechanism half of adaptive re-planning (the policy lives
// in internal/replan): detecting that a registration's frozen SJ-Tree
// decomposition has drifted away from what the live statistics would
// produce, and hot-swapping the registration onto a fresh plan without
// losing or duplicating a single match.
//
// The swap works because two invariants already hold:
//
//  1. The dynamic graph retains every edge that can still participate in a
//     match (retention is never narrower than the widest query window), so
//     replaying the retained window through a freshly built tree rebuilds
//     exactly the partial-match state the new plan needs.
//  2. Complete-match identity is the bound data-edge set (EdgeSetHash), and
//     the new tree inherits the old tree's emitted-set, so a match
//     re-derived during replay is recognized and suppressed as a duplicate
//     while a match that only completes across the swap boundary is
//     emitted exactly once.

// replanAuditRing bounds how many drift-check audit records a registration
// retains.
const replanAuditRing = 8

// ReplanNodeAudit is the per-SJ-tree-node slice of a drift-check audit: the
// node's cardinality estimate under the estimator at the time of the check,
// next to what the node has actually seen. Nodes appear in the tree's
// pre-order, matching QueryMetrics.Nodes.
type ReplanNodeAudit struct {
	Edges          []query.EdgeID `json:"edges"`
	IsLeaf         bool           `json:"is_leaf"`
	EstCardinality float64        `json:"est_cardinality"`
	Inserted       uint64         `json:"inserted"`
	Stored         int            `json:"stored"`
}

// ReplanAudit records one adaptive drift-check decision — fired or declined
// — with the evidence it was made on: the frozen and fresh plan costs under
// the engine's estimator, the detector's ratio, and the frozen plan's per-node
// estimated-vs-observed cardinalities at the moment of the check. The last
// replanAuditRing records are retained per registration and the newest is
// surfaced through QueryMetrics.LastReplanAudit, giving estimator validation
// something to chew on even when the detector never fires.
type ReplanAudit struct {
	Query      string          `json:"query"`
	CheckedAt  graph.Timestamp `json:"checked_at"`
	FrozenCost float64         `json:"frozen_cost"`
	FreshCost  float64         `json:"fresh_cost"`
	Ratio      float64         `json:"ratio"`
	Swapped    bool            `json:"swapped"`
	// PlanGeneration is the generation in force after the decision (a swap
	// increments it).
	PlanGeneration uint64            `json:"plan_generation"`
	Nodes          []ReplanNodeAudit `json:"nodes,omitempty"`
}

// recordAudit appends a to the registration's audit ring.
func (r *Registration) recordAudit(a ReplanAudit) {
	if len(r.audits) >= replanAuditRing {
		copy(r.audits, r.audits[1:])
		r.audits = r.audits[:len(r.audits)-1]
	}
	r.audits = append(r.audits, a)
}

// nodeAudit captures the frozen plan's per-node estimated-vs-observed state
// under est.
func nodeAudit(est *stats.Estimator, reg *Registration) []ReplanNodeAudit {
	if reg.tree == nil {
		// Shared-plan mode: per-node observations live in the DAG, keyed by
		// canonical signature rather than this query's plan shape; the audit
		// keeps its cost evidence and omits the per-node breakdown.
		return nil
	}
	perNode := reg.tree.Stats().PerNodeStored
	ests := nodeEstimates(est, reg.plan)
	out := make([]ReplanNodeAudit, len(perNode))
	for i, ns := range perNode {
		a := ReplanNodeAudit{
			Edges:    ns.Edges,
			IsLeaf:   ns.IsLeaf,
			Inserted: ns.Inserted,
			Stored:   ns.Stored,
		}
		if i < len(ests) {
			a.EstCardinality = ests[i]
		}
		out[i] = a
	}
	return out
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
	if e.adaptiveCount == 0 || e.summary == nil {
		return
	}
	total := e.metrics.EdgesProcessed
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
		e.metrics.ReplanChecks++
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
		// The audit's per-node evidence must be captured before a swap
		// replaces the tree it describes.
		audit := ReplanAudit{
			Query:          name,
			CheckedAt:      now,
			FrozenCost:     frozenCost,
			FreshCost:      freshCost,
			Ratio:          ratio,
			Swapped:        swap,
			PlanGeneration: reg.planGen,
			Nodes:          nodeAudit(e.est, reg),
		}
		if swap {
			if err := e.installPlan(reg, fresh); err != nil {
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
	if err := e.installPlan(reg, fresh); err != nil {
		return err
	}
	reg.det.NoteSwap(e.dyn.Watermark())
	return nil
}

// installPlan dispatches a plan swap to the mode-appropriate mechanism.
func (e *Engine) installPlan(reg *Registration, plan *decompose.Plan) error {
	if e.dag != nil {
		return e.swapPlanShared(reg, plan)
	}
	return e.swapPlan(reg, plan)
}

// swapPlan installs plan as reg's live decomposition: a new SJ-Tree is
// built, it inherits the old tree's emitted-match identity (the cross-swap
// dedup), the per-edge-type candidate index is rebuilt for the new leaves,
// and the retained window is replayed through the new tree to reconstruct
// every partial match that could still complete. Matches that emerge during
// replay flow through the normal emission path (sinks, counters);
// in the expected case they are all already-emitted duplicates and the
// inherited dedup silences them.
func (e *Engine) swapPlan(reg *Registration, plan *decompose.Plan) error {
	tree, err := sjtree.New(plan)
	if err != nil {
		return fmt.Errorf("core: building SJ-Tree for %q: %w", reg.name, err)
	}
	tree.InheritEmitted(reg.tree)
	reg.plan = plan
	reg.tree = tree
	reg.nodeEst = nodeEstimates(e.est, plan)
	reg.rebuildCandidates()
	reg.planGen++
	reg.replans++
	e.metrics.Replans++

	replayed := 0
	e.dyn.ForEachLiveEdge(func(de *graph.Edge) bool {
		events := reg.processEdge(de, nil)
		// Replay emissions bypass ProcessEdge's event accounting; fold any
		// genuinely new completions (a match the old plan had not surfaced
		// yet) into the emitted counter here so metrics stay truthful.
		e.metrics.MatchesEmitted += uint64(len(events))
		replayed++
		return true
	})
	e.metrics.ReplanEdgesReplayed += uint64(replayed)
	return nil
}

// swapPlanShared is swapPlan's shared-DAG counterpart: the DAG re-attaches
// the registration under the new plan while the old plan's nodes are still
// live, so subtrees common to both plans — and anything shared with other
// queries — keep their state instead of being replayed. Only genuinely new
// DAG nodes are backfilled from the retained window (mqo.DAG.Swap); the
// inherited emitted-set keeps the match stream exactly-once across the
// boundary, and emissions produced during backfill flow through emitShared
// like any other.
func (e *Engine) swapPlanShared(reg *Registration, plan *decompose.Plan) error {
	// emitShared appends to e.dagEvents; stash whatever buffer an enclosing
	// ProcessEdge call is accumulating into and give the swap its own, so
	// replay emissions are counted here without leaking into the caller's
	// per-edge slice.
	saved := e.dagEvents
	e.dagEvents = nil
	att, err := e.dag.Swap(reg.name, plan)
	if err != nil {
		e.dagEvents = saved
		return fmt.Errorf("core: shared-plan swap for %q: %w", reg.name, err)
	}
	e.metrics.MatchesEmitted += uint64(len(e.dagEvents))
	e.dagEvents = saved
	reg.att = att
	reg.plan = plan
	reg.nodeEst = nodeEstimates(e.est, plan)
	reg.planGen++
	reg.replans++
	e.metrics.Replans++
	e.metrics.ReplanEdgesReplayed += att.ReplayedEdges()
	return nil
}
