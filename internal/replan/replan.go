// Package replan implements the policy half of StreamWorks' adaptive
// runtime re-planning: deciding *when* a registered query's SJ-Tree
// decomposition has drifted far enough from what the live stream statistics
// would produce that it is worth hot-swapping the plan.
//
// StreamWorks freezes each query's decomposition at registration time, but
// the window statistics (internal/stats) move with the stream: on workloads
// whose edge-type mix drifts — a netflow stream that turns scan-heavy, a news
// stream whose topics rotate — the frozen plan anchors the SJ-Tree on
// primitives that were rare at registration and are common now, inflating
// the stored partial-match volume and the per-edge join work. The companion
// work on dynamic-graph query optimization (arXiv:1407.3745, 1306.2459)
// makes the same observation: decomposition must track the evolving
// distribution.
//
// The package is deliberately mechanism-free: it scores plans against a
// live estimator (PlanCost) and applies hysteresis (Detector) so the engine
// only swaps when the estimated win is large and sustained. The swap
// mechanics — rebuilding SJ-Tree state from the retained window without
// losing or duplicating matches — live in internal/core, which owns the
// runtime state.
package replan

import (
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/stats"
)

// Defaults applied by Config.WithDefaults for zero fields.
const (
	// DefaultCheckEvery is the number of processed edges between drift
	// checks. Checks are cheap (one trial plan per adaptive query) but not
	// free, so they are amortized over a few thousand edges.
	DefaultCheckEvery = 2048
	// DefaultThreshold is the hysteresis ratio: the frozen plan's estimated
	// cost must exceed the fresh plan's by at least this factor before a
	// swap fires. A swap replays the retained window, so marginal wins are
	// not worth the churn; 2x is comfortably past estimator noise.
	DefaultThreshold = 2.0
	// DefaultCooldown is the minimum stream time between swaps of one
	// query, bounding replay churn under oscillating workloads.
	DefaultCooldown = 10 * time.Second
	// DefaultMinEdges is the number of edges the engine must have processed
	// before the first check: plans compared against a cold window reflect
	// initialization noise, not drift.
	DefaultMinEdges = 1024
)

// Config tunes the drift detector. The zero value means "all defaults";
// normalize with WithDefaults before use.
type Config struct {
	// CheckEvery is the number of processed edges between drift checks
	// (engine-wide). <= 0 selects DefaultCheckEvery.
	CheckEvery int
	// Threshold is the minimum frozen/fresh estimated cost ratio that
	// triggers a swap. Values <= 1 select DefaultThreshold: a threshold at
	// or below parity would make the engine thrash on estimator noise.
	Threshold float64
	// Cooldown is the minimum stream time between swaps of one query.
	// Zero selects DefaultCooldown; negative disables the cooldown
	// (normalized to -1, so re-normalizing an already-normalized config
	// cannot resurrect the default).
	Cooldown time.Duration
	// MinEdges is the minimum number of processed edges before the first
	// check. <= 0 selects DefaultMinEdges.
	MinEdges uint64
}

// WithDefaults returns cfg with zero fields replaced by the defaults.
func (c Config) WithDefaults() Config {
	if c.CheckEvery <= 0 {
		c.CheckEvery = DefaultCheckEvery
	}
	if c.Threshold <= 1 {
		c.Threshold = DefaultThreshold
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultCooldown
	} else if c.Cooldown < 0 {
		c.Cooldown = -1
	}
	if c.MinEdges == 0 {
		c.MinEdges = DefaultMinEdges
	}
	return c
}

// PlanCost scores a decomposition plan against the current stream
// statistics: the sum of the estimated match cardinalities of every
// non-root node's query subgraph. Leaf cardinalities approximate the
// primitive-match volume stored (and locally searched) at the bottom of the
// SJ-Tree; internal-node cardinalities approximate the intermediate join
// results tracked while matches climb. The root is excluded because it is
// the whole query for every plan of the same query — it cancels out of any
// comparison between candidate plans.
//
// The absolute value is meaningless (the estimator's independence
// assumptions see to that); only ratios between plans for the same query
// under the same estimator are.
func PlanCost(est *stats.Estimator, p *decompose.Plan) float64 {
	if est == nil || p == nil || p.Root == nil {
		return 0
	}
	var cost float64
	var walk func(n *decompose.Node)
	walk = func(n *decompose.Node) {
		if n == nil {
			return
		}
		if n != p.Root {
			cost += est.SubgraphCardinality(p.Query, n.Edges)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(p.Root)
	return cost
}

// Detector applies the hysteresis policy for one registered query. It is
// plain single-goroutine state, owned by whatever drives the engine — it
// performs no synchronization of its own.
type Detector struct {
	cfg      Config
	lastSwap graph.Timestamp
	swapped  bool
}

// NewDetector builds a detector with cfg normalized via WithDefaults.
func NewDetector(cfg Config) Detector {
	return Detector{cfg: cfg.WithDefaults()}
}

// Config returns the normalized configuration in force.
func (d *Detector) Config() Config { return d.cfg }

// Should reports whether the engine should swap the frozen plan for the
// fresh one: the engine must be warm (seenEdges, the edges it has processed,
// >= MinEdges), the cooldown since the previous swap must have elapsed at
// now, and the frozen plan's estimated cost must exceed the fresh plan's by
// at least the threshold factor. The returned ratio (frozen/fresh; 0 when fresh has no cost) is
// reported regardless of the verdict so callers can expose it in metrics.
func (d *Detector) Should(frozenCost, freshCost float64, seenEdges uint64, now graph.Timestamp) (ratio float64, swap bool) {
	if freshCost > 0 {
		ratio = frozenCost / freshCost
	}
	if seenEdges < d.cfg.MinEdges {
		return ratio, false
	}
	if d.swapped && d.cfg.Cooldown > 0 && now.Sub(d.lastSwap) < d.cfg.Cooldown {
		return ratio, false
	}
	if freshCost <= 0 {
		// A fresh plan with no estimated cost means the estimator has no
		// signal (cold window or disabled statistics); never swap on that.
		return ratio, false
	}
	return ratio, ratio >= d.cfg.Threshold
}

// NoteSwap records that a swap fired at stream time now, arming the
// cooldown.
func (d *Detector) NoteSwap(now graph.Timestamp) {
	d.swapped = true
	d.lastSwap = now
}
