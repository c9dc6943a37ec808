package core

import (
	"github.com/streamworks/streamworks/internal/obs"
)

// engineObs is the engine's resolved metrics state. Its registry is the one
// store of the engine's counts and sizes, kept whether or not observability
// is on; the DAG keeps its own counts in the same registry (mqo.WithObs).
// Handles are resolved once at construction, per-query ones at registration,
// so the per-edge cost is a few atomic adds. The clock and the detect-lag
// histogram exist only when observability is enabled, and the wall clock
// only ever arrives through the obs.Clock seam
// (obs.TestHotPathReadsNoWallClock keeps concrete clocks out of this
// package).
type engineObs struct {
	registry *obs.Registry

	edgesProcessed, edgesDropped, matchesDetected *obs.Counter
	partialsPruned, pruneRuns                     *obs.Counter
	replans, replanChecks, replanEdgesReplayed    *obs.Counter
	// The window graph's and the DAG's sizes, set by refreshGauges.
	liveEdges, liveVertices, expiredEdges, partialsStored *obs.Gauge

	enabled bool
	clock   obs.Clock
	// detectLag is the stream-time detection lag per emitted match
	// (DetectedAt − match span end) — pure timestamp arithmetic, no clock.
	detectLag *obs.Histogram
	// windowApply is the wall time of each applied edge's dyn.Apply.
	windowApply *obs.Histogram

	// curArrival is the serving-tier arrival stamp of the edge currently
	// inside ProcessEdge (StreamEdge.ArrivedWallNS, zero when the edge never
	// crossed a serving tier). The engine is single-threaded, so one field
	// suffices; Registration.emit copies it onto every match the edge
	// completes.
	curArrival int64
}

// newEngineObs resolves the engine's handles in c's registry; c must be
// normalized.
func newEngineObs(c obs.Config) engineObs {
	r := c.Registry
	o := engineObs{
		registry:            r,
		edgesProcessed:      r.Counter("edges_processed", "", ""),
		edgesDropped:        r.Counter("edges_dropped", "", ""),
		matchesDetected:     r.Counter("matches_detected", "", ""),
		partialsPruned:      r.Counter("partials_pruned", "", ""),
		pruneRuns:           r.Counter("prune_runs", "", ""),
		replans:             r.Counter("replans", "", ""),
		replanChecks:        r.Counter("replan_checks", "", ""),
		replanEdgesReplayed: r.Counter("replan_edges_replayed", "", ""),
		liveEdges:           r.Gauge("live_edges", "", ""),
		liveVertices:        r.Gauge("live_vertices", "", ""),
		expiredEdges:        r.Gauge("expired_edges", "", ""),
		partialsStored:      r.Gauge("partials_stored", "", ""),
	}
	if c.Enabled {
		o.enabled = true
		o.clock = c.Clock
		o.detectLag = r.Histogram(obs.DetectLagHistogramName, "", "")
		o.windowApply = r.Segment(obs.SegWindowApply)
	}
	return o
}

// ObsRegistry returns the engine's metric registry. Snapshots are safe from
// any goroutine.
func (e *Engine) ObsRegistry() *obs.Registry { return e.obs.registry }
