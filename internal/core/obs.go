package core

import (
	"github.com/streamworks/streamworks/internal/obs"
)

// engineObs is the engine's resolved observability state. Handles are
// resolved once at construction so the per-edge cost is one branch when
// disabled and plain atomic adds when enabled; the wall clock only ever
// arrives through the obs.Clock seam (obs.TestHotPathReadsNoWallClock keeps
// concrete clocks out of this package). The local-search and join segments
// are timed by the DAG itself (mqo.WithObs).
type engineObs struct {
	enabled  bool
	clock    obs.Clock
	registry *obs.Registry
	tracer   *obs.Tracer
	shard    int32

	// detectLag is the stream-time detection lag per emitted match
	// (DetectedAt − match span end) — pure timestamp arithmetic, no clock.
	detectLag *obs.Histogram
	// emittedEvicted counts emitted-set entries dropped by the expiry cutoff.
	emittedEvicted *obs.Counter

	// curArrival is the serving-tier arrival stamp of the edge currently
	// inside ProcessEdge (StreamEdge.ArrivedWallNS, zero when the edge never
	// crossed a serving tier). The engine is single-threaded, so one field
	// suffices; Registration.emit copies it onto every match the edge
	// completes.
	curArrival int64
	// curEdge is the stored ID of that same edge: emit has no *graph.Edge in
	// hand (the DAG emits through callbacks), so trace sampling reads the ID
	// from here.
	curEdge uint64
}

func newEngineObs(c obs.Config) engineObs {
	c = c.Normalized()
	if !c.Enabled {
		return engineObs{}
	}
	return engineObs{
		enabled:   true,
		clock:     c.Clock,
		registry:  c.Registry,
		tracer:    c.Tracer,
		shard:     c.Shard,
		detectLag: c.Registry.Histogram(obs.DetectLagHistogramName, "", ""),

		emittedEvicted: c.Registry.Counter(obs.EmittedEvictedCounterName, "", ""),
	}
}

// ObsRegistry returns the engine's metric registry, or nil when
// observability is disabled. Snapshots are safe from any goroutine.
func (e *Engine) ObsRegistry() *obs.Registry { return e.obs.registry }
