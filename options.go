package streamworks

import (
	"net/http"

	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/wal"
)

// config collects every backend's tunables; each constructor reads the
// fields that apply to it and ignores the rest.
type config struct {
	engine     core.Config
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

// coreOptions is the core option list the in-process backend registers a
// query with on its engine.
func coreOptions(o RegisterOptions) []core.RegistrationOption {
	if o.Strategy == "" {
		return nil
	}
	return []core.RegistrationOption{core.WithStrategy(decompose.Strategy(o.Strategy))}
}

// Option customizes an engine constructor. Options that do not apply to the
// chosen constructor are ignored (e.g. WithEngineConfig on Connect — a
// remote engine's window is fixed by the daemon).
type Option func(*config)

// WithSummaries is ignored: the window statistics the selective query
// planner reads cost nothing per edge and are always on. The option is kept
// only because benchmark/ still passes it.
func WithSummaries(bool) Option {
	return func(*config) {}
}

// WithEngineConfig sets the per-engine configuration, the only option for
// any of its fields: the window (Retention; zero, the default, retains
// every edge), the lateness Slack, and Obs.Enabled, which turns on what
// reads the wall clock — the per-segment latency histograms and the
// detection-lag histogram that Sharded.ObsSnapshot returns beside the
// counters and gauges kept either way. In-process engines only.
func WithEngineConfig(cfg EngineConfig) Option {
	return func(c *config) { c.engine = cfg }
}

// WithSharedPlans is ignored: every in-process backend folds its queries
// into one shared evaluation DAG, in which structurally identical
// subpatterns are computed once per arriving edge and fanned out to every
// query containing them. The option stays only because the benchmark harness
// under benchmark/ still passes it.
func WithSharedPlans(bool) Option {
	return func(*config) {}
}

// WithDataDir enables durability for the in-process engine: every ingested
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
// batches: a new segment starts with a manifest of the registrations and
// their delivery cursors, and the oldest segments whose edges have all left
// the window are deleted. It bounds how far beyond the window a recovery replays and
// how many segment files the window is spread over; nothing is serialized
// but the manifest. Default 4096; negative leaves checkpoints to segment
// size (8 MiB of records behind the manifest). Requires WithDataDir.
func WithSnapshotEvery(n int) Option {
	return func(c *config) { c.snapshotEvery = n }
}

// WithManualDeliveryAck defers delivery acknowledgment to the embedder:
// the engine stops treating a subscription sink's return as proof of
// delivery, and the embedder must call AckDelivered once a match has truly
// reached its consumer (e.g. the serving tier flushed it to the
// subscriber's socket). The acks move each query's delivery cursor: a match
// neither acked nor followed by an acked match of its query is redelivered
// after a crash, and an acked one is suppressed on recovery. With several
// subscribers the furthest ack leads (see AckDelivered). For asynchronous
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
// match subscriptions: TransportNDJSON (the default; one JSON object per
// line, curl-able) or TransportBinary (length-prefixed frames: smaller
// bodies, no per-edge JSON encode/decode). Match sets are byte-identical
// across transports. Connect only.
type Transport = client.Transport

// The Remote wire encodings.
const (
	TransportNDJSON = client.TransportNDJSON
	TransportBinary = client.TransportBinary
)

// WithTransport selects the Remote wire encoding (default TransportNDJSON).
// Over TransportNDJSON each ProcessBatch is one POST /v1/edges?wait=1; over
// TransportBinary every ProcessBatch travels on one long-lived ingest
// session (POST /v1/stream?batch=1), a batch and a sync frame answered by
// an ack frame, with the answer the same batch gets as a POST. Connect only.
func WithTransport(t Transport) Option {
	return func(c *config) { c.transport = t }
}
