// Package obs is StreamWorks' zero-dependency metrics and observability
// layer: lock-light atomic counters and gauges, fixed-bucket latency
// histograms behind a mergeable registry, a wall-clock seam that keeps the
// hot path stream-time-pure.
//
// The registry is the one store of every number the system counts. Each tier
// owns one — the core engine, the server and the WAL manager — written only by
// its owner and allocated whether or not observability is on; the series names
// are the constants below. Every metrics surface is a rendering of a snapshot:
// the Metrics views fill their structs from one, GET /metrics prints one, and
// front-ends fold the tiers' snapshots with Merge, the only code that adds
// numbers across tiers. Config.Enabled gates only what reads the wall clock:
// the segment, journey and detect-lag histograms, the one record of where an
// edge's time went. Nothing in this package allocates on the hot path once the
// handles have been resolved, and every handle is nil-safe.
//
// Wall time never enters the core engine directly: TestHotPathReadsNoWallClock
// fails on a time.Now there. Core instead receives a Clock through its Config
// and reads nanoseconds through the interface; the only implementation that
// touches the machine clock lives here, outside the hot-path packages, and the
// same test fails on any hot-path reference to it so the seam cannot be
// short-circuited.
package obs

import "time"

// Clock supplies wall-clock nanoseconds to serving-tier instrumentation. It
// exists so hot-path packages can measure wall latency without importing a
// wall clock: they accept a Clock from their configuration and the concrete
// implementation stays out of their dependency cone (held by
// TestHotPathReadsNoWallClock).
type Clock interface {
	// Now returns the current wall time in nanoseconds since the Unix epoch.
	Now() int64
}

type systemClock struct{}

func (systemClock) Now() int64 { return time.Now().UnixNano() }

// SystemClock is the real wall clock. Hot-path packages must not reference
// it directly — they receive it via configuration
// (TestHotPathReadsNoWallClock).
var SystemClock Clock = systemClock{}

// Config is the observability seam handed to each tier. The zero value has
// no clock reads; counters and gauges are always kept.
type Config struct {
	// Enabled turns on what reads the wall clock: the latency histograms.
	// When false Clock is ignored and each timing site reduces to a single
	// branch.
	Enabled bool
	// Registry receives this tier's counters, gauges and histograms. Nil
	// means Normalized allocates a fresh one.
	Registry *Registry
	// Clock supplies wall nanoseconds. Nil with Enabled set means
	// SystemClock. Tests inject a fake to make latency assertions exact.
	Clock Clock
}

// Normalized fills in defaults: a fresh Registry when there is none, the
// SystemClock when enabled, and no clock when disabled (so disabled configs
// never carry a live clock by accident).
func (c Config) Normalized() Config {
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	if !c.Enabled {
		return Config{Registry: c.Registry}
	}
	if c.Clock == nil {
		c.Clock = SystemClock
	}
	return c
}

// Segment labels for the detect-and-deliver latency histograms. Each names
// one leg of an edge's journey from HTTP ingest to subscription delivery;
// summed segment means should account for (nearly all of) the end-to-end
// latency loadgen measures.
const (
	// SegIngestQueueWait is the time from the server decoding the first
	// edge of an ingest chunk to the runner goroutine picking the chunk up:
	// the chunk's decode plus its wait in the bounded ingest queue.
	SegIngestQueueWait = "ingest_queue_wait"
	// SegWindowApply is the per-edge time spent applying the edge to the
	// sliding-window graph, its insert and the expiry it triggers, measured
	// in the core engine.
	SegWindowApply = "window_apply"
	// SegLocalSearch is the per-edge time spent in leaf-primitive local
	// searches (isomorphism matching), measured in the core engine.
	SegLocalSearch = "local_search"
	// SegDAGJoin is the per-edge time spent inserting primitive matches
	// into the shared DAG's partial stores and propagating its hash joins
	// upward.
	SegDAGJoin = "dag_join"
	// SegDispatch is the time from core emission of a complete match to the
	// in-process backend taking the delivery lock; measured there.
	SegDispatch = "dispatch"
	// SegHTTPFlush is the time from the engine handing a match to subscriber
	// sinks to the streaming HTTP response flush completing: the wait in the
	// subscriber's bounded buffer plus encode and flush. It picks up exactly
	// where SegDispatch ends.
	SegHTTPFlush = "http_flush"
)

// Histogram names, recorded only while observability is enabled.
const (
	// SegmentHistogramName is the histogram family holding the per-segment
	// wall-time latencies, labelled by segment.
	SegmentHistogramName = "segment_latency"
	// SegmentLabelKey is the label key for SegmentHistogramName.
	SegmentLabelKey = "segment"
	// DetectLagHistogramName is the stream-time detection-lag histogram: for
	// every emitted match, DetectedAt minus the match's span end. It is
	// computed purely from stream timestamps, so the core records it without
	// touching any clock.
	DetectLagHistogramName = "detect_stream_lag"
	// JourneyHistogramName is the per-match wall-clock journey histogram:
	// for every delivered match, flush completion minus the serving-tier
	// arrival of the edge that completed it. Unlike the per-edge segment
	// histograms it is match-weighted, so its mean is directly comparable to
	// a client's measured detect-and-deliver latency — the closure check for
	// the segment breakdown.
	JourneyHistogramName = "detect_wall_journey"
)

// QueryLabelKey labels a per-query series with the registration name.
const QueryLabelKey = "query"

// Segment returns the histogram for one latency segment, creating it on
// first use. Resolve handles at setup time, not per edge.
func (r *Registry) Segment(seg string) *Histogram {
	return r.Histogram(SegmentHistogramName, SegmentLabelKey, seg)
}
