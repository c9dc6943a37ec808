package streamworks

import (
	"net/http"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/wal"
)

// config collects every backend's tunables; each constructor reads the
// fields that apply to it and ignores the rest.
type config struct {
	engine     core.Config
	shards     int
	httpClient *http.Client
	transport  Transport
	// Durability knobs (WithDataDir and friends). walFS is the filesystem
	// seam the fault-injection tests substitute; nil uses the real one.
	dataDir       string
	fsyncPolicy   string
	snapshotEvery int
	manualAck     bool
	walFS         wal.FS
}

// finishObs normalizes the observability config after the option loop: it
// pins the clock, so the public tier shares the engine tiers' timebase for
// its own stamps.
func (c *config) finishObs() {
	if c.engine.Obs.Enabled && c.engine.Obs.Clock == nil {
		c.engine.Obs.Clock = obs.SystemClock
	}
}

// report resolves a match event into the public Match form through the
// backend's reporter (which shares slices between the reports of one match),
// stamping the dispatch→flush hand-off when observability is on: the serving
// tier measures its flush segment (subscriber-buffer wait included) from it.
func (c *config) report(r *export.Reporter, ev core.MatchEvent, q *Query) Match {
	rep := r.Build(ev, q)
	if c.engine.Obs.Enabled && c.engine.Obs.Clock != nil {
		rep.DeliveredWallNS = c.engine.Obs.Clock.Now()
	}
	return rep
}

func defaultConfig() config {
	return config{
		engine: core.DefaultConfig(),
		shards: shard.DefaultConfig().Shards,
	}
}

// coreOptions is the core option list the in-process backends pass to the
// engine (and the sharded front-end replicates to every shard).
func (o RegisterOptions) coreOptions() []core.RegistrationOption {
	opts := []core.RegistrationOption{core.WithAdaptive(o.Adaptive)}
	if o.Strategy != "" {
		opts = append(opts, core.WithStrategy(decompose.Strategy(o.Strategy)))
	}
	return opts
}

// Option customizes an engine constructor. Options that do not apply to the
// chosen backend are ignored (e.g. WithShards on New, WithRetention on
// Connect — a remote engine's window is fixed by the daemon).
type Option func(*config)

// WithRetention sets the sliding window width of the dynamic graph. Zero
// (the default) retains every edge; registrations with time windows widen
// retention automatically before streaming begins. In-process backends only.
func WithRetention(d time.Duration) Option {
	return func(c *config) { c.engine.Retention = d }
}

// WithSummaries toggles the window statistics (type counts and sampled
// triads) the selective query planner and adaptive re-planning read.
// In-process backends only; default on.
func WithSummaries(enabled bool) Option {
	return func(c *config) { c.engine.EnableSummaries = enabled }
}

// WithEngineConfig replaces the whole per-engine configuration at once, for
// embedders that already manage an EngineConfig. Later fine-grained options
// still apply on top. In-process backends only.
func WithEngineConfig(cfg EngineConfig) Option {
	return func(c *config) { c.engine = cfg }
}

// WithShards sets the number of engine shards for NewSharded (default 4,
// minimum 1). Ignored by the other backends.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithSharedPlans is ignored: every in-process backend folds its queries
// into one shared evaluation DAG, in which structurally identical
// subpatterns are computed once per arriving edge and fanned out to every
// query containing them. The option stays only because the benchmark harness
// under benchmark/ still passes it.
func WithSharedPlans(bool) Option {
	return func(*config) {}
}

// WithObservability turns on, for in-process backends, what reads the wall
// clock: per-segment latency histograms (local search, DAG join, shard
// mailbox wait, dispatch) and the stream-time detection-lag histogram, the
// one record of where an edge's time went. Counters and gauges are kept
// either way — Metrics is a view of them, and Local.ObsSnapshot /
// Sharded.ObsSnapshot return them with the histograms; per-node DAG
// statistics are in Metrics().MQO. Default off; when off each clock read
// reduces to a single branch.
func WithObservability(enabled bool) Option {
	return func(c *config) { c.engine.Obs.Enabled = enabled }
}

// WithDataDir enables durability for in-process backends: every ingested
// batch, registration and watermark advance is appended to a segmented
// write-ahead log under dir before processing, periodic checkpoints delete
// the segments the window has left behind, and a restart pointing at the
// same dir rebuilds the
// retained window, registrations and partial-match state, suppressing
// matches already delivered before the crash. Empty (the default)
// disables durability. If the directory cannot be opened the engine still
// starts, in-memory only, reporting durability "degraded".
func WithDataDir(dir string) Option {
	return func(c *config) { c.dataDir = dir }
}

// WithFsyncPolicy picks when WAL appends are forced to stable storage:
// "always" (sync every frame), "interval" (group commit, the default) or
// "off" (page cache only — still survives a process crash, not power
// loss). Unknown names degrade durability at construction. Requires
// WithDataDir.
func WithFsyncPolicy(policy string) Option {
	return func(c *config) { c.fsyncPolicy = policy }
}

// WithSnapshotEvery checkpoints the write-ahead log every n ingested
// batches: a new segment starts with a manifest of the registrations and the
// emitted-set, and the oldest segments whose edges have all left the window
// are deleted. It bounds how far beyond the window a recovery replays and
// how many segment files the window is spread over; nothing is serialized
// but the manifest. Default 4096; negative leaves checkpoints to segment
// size (8 MiB). Requires WithDataDir.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapshotEvery = n }
}

// WithManualDeliveryAck defers emitted-match acknowledgment to the
// embedder: the engine stops treating a subscription sink's return as
// proof of delivery, and the embedder must call AckDelivered once a match
// has truly reached its consumer (e.g. the serving tier flushed it to the
// subscriber's socket). Without the ack a match is redelivered after a
// crash; with it the match is suppressed on recovery. For asynchronous
// delivery pipelines only; synchronous embedders should keep the default.
func WithManualDeliveryAck(enabled bool) Option {
	return func(c *config) { c.manualAck = enabled }
}

// withWALFS substitutes the WAL's filesystem, for fault-injection tests.
func withWALFS(fs wal.FS) Option {
	return func(c *config) { c.walFS = fs }
}

// WithHTTPClient substitutes the http.Client Connect uses for every request.
// The client must not enforce an overall request timeout (subscriptions are
// long-lived streams); use per-call contexts instead. Connect only.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *config) { c.httpClient = hc }
}

// Transport selects the wire encoding a Remote engine uses for ingest and
// match subscriptions. Connect only.
type Transport string

const (
	// TransportNDJSON is the default text transport: one JSON object per
	// line, human-readable, curl-able.
	TransportNDJSON Transport = "ndjson"
	// TransportBinary is the length-prefixed binary frame transport:
	// smaller bodies, no per-edge JSON encode/decode, measurably higher
	// daemon throughput. Match sets are byte-identical across transports
	// (enforced by the transport-equivalence matrix).
	TransportBinary Transport = "binary"
)

// WithTransport selects the Remote wire encoding (default TransportNDJSON).
// Connect only.
func WithTransport(t Transport) Option {
	return func(c *config) { c.transport = t }
}
