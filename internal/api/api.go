// Package api defines the wire types of the StreamWorks HTTP API, shared by
// the server (internal/server) and the typed client (internal/client) so the
// two sides can never drift, and by the public streamworks package, whose
// remote backend surfaces some of them directly. Everything here is a plain
// data type; the metrics views name the registry series they render in
// `metric` tags (obs.Fill).
package api

import (
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/obs"
)

// Version identifies the HTTP API generation served under the /v1 prefix and
// reported by GET /healthz. Incompatible wire changes bump it.
const Version = "v1"

// HealthResponse is the GET /healthz payload.
type HealthResponse struct {
	// Status is "ok" while serving, "draining" once shutdown has begun.
	Status string `json:"status"`
	// Version is the API generation (Version).
	Version string `json:"version"`
	// Shards is the number of engine shards behind this daemon.
	Shards int `json:"shards"`
	// UptimeSeconds is the time since the serving layer started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// GoVersion is the daemon's runtime.Version() — which toolchain built
	// the binary answering this probe.
	GoVersion string `json:"go_version"`
	// ObsEnabled reports whether the daemon runs with the observability
	// layer on (streamworksd -obs): the segment, journey and detect-lag
	// latency histograms in /metrics and in the obs section of /v1/metrics
	// are recorded only when true.
	ObsEnabled bool `json:"obs_enabled"`
	// Durability is the engine's durability mode: "off" (no -data-dir),
	// "ok" (WAL live) or "degraded" (durability requested but the WAL could
	// not be opened or hit a write error; ingest continues in-memory only).
	Durability string `json:"durability,omitempty"`
}

// RegisterOptions are one query's plan settings, sent as the optional query
// parameters of POST /v1/queries (the body stays pure DSL text): ?strategy=
// names the decomposition strategy (empty: selective). The daemon has no
// defaults of its own. The fields are streamworks.RegisterOptions', which
// converts to this type.
type RegisterOptions struct {
	Strategy string
}

// RegisterResponse summarizes a successful query registration: the query
// shape and the plan settings it was registered with. The plan each shard
// actually runs is reported per query on GET /v1/metrics.
type RegisterResponse struct {
	Name     string `json:"name"`
	Window   string `json:"window"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Strategy string `json:"strategy"`
}

// QueryInfo is one entry of the GET /v1/queries listing.
type QueryInfo struct {
	Name     string `json:"name"`
	Window   string `json:"window"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

// IngestResponse reports how an edge batch was handled.
type IngestResponse struct {
	// Accepted is the number of edges admitted: decoded and queued (async)
	// or routed to the shards (wait=1).
	Accepted int `json:"accepted"`
	// Queued is true when the batch was accepted asynchronously and is still
	// in (or being drained from) the ingest queue.
	Queued bool `json:"queued"`
	// Error carries a processing error for wait=1 batches that failed
	// part-way.
	Error string `json:"error,omitempty"`
}

// AdvanceRequest is the body of POST /v1/advance: an explicit stream-time
// signal (nanoseconds, same clock as edge timestamps) broadcast to every
// shard, driving window expiry and pruning between sparse batches.
type AdvanceRequest struct {
	TS int64 `json:"ts"`
}

// ServerMetrics counts serving-layer activity, complementing the engine
// counters: a view of the server's registry (obs.Fill).
type ServerMetrics struct {
	Subscribers        int    `json:"subscribers" metric:"server_subscribers"`
	SubscribersEvicted uint64 `json:"subscribers_evicted" metric:"server_subscribers_evicted"`
	MatchesDelivered   uint64 `json:"matches_delivered" metric:"server_matches_delivered"`
	EdgesIngested      uint64 `json:"edges_ingested" metric:"server_edges_ingested"`
	BatchesIngested    uint64 `json:"batches_ingested" metric:"server_batches_ingested"`
	BatchesRejected    uint64 `json:"batches_rejected" metric:"server_batches_rejected"`
	IngestQueueLen     int    `json:"ingest_queue_len" metric:"server_ingest_queue_len"`
	IngestQueueCap     int    `json:"ingest_queue_cap" metric:"server_ingest_queue_cap"`
}

// WALMetrics is the engine's durability state and counters (the public
// streamworks.DurabilityStats is this type), present in MetricsResponse when
// the daemon runs with a data dir: a view of the WAL's registry
// (WALMetricsFrom).
type WALMetrics struct {
	// Mode is "off" without a data dir, "ok" while the WAL is live and
	// "degraded" after an open or write failure (the engine keeps serving,
	// in-memory only).
	Mode                string `json:"mode"`
	Frames              uint64 `json:"frames_appended" metric:"wal_frames_appended"`
	Bytes               uint64 `json:"bytes_appended" metric:"wal_bytes_appended"`
	Fsyncs              uint64 `json:"fsyncs" metric:"wal_fsyncs"`
	Segments            uint64 `json:"segments_created" metric:"wal_segments_created"`
	Snapshots           uint64 `json:"snapshots_written" metric:"wal_snapshots_written"`
	TornTailTruncations uint64 `json:"torn_tail_truncations" metric:"wal_torn_tail_truncations"`
	AppendErrors        uint64 `json:"append_errors" metric:"wal_append_errors"`
	EmittedTracked      uint64 `json:"emitted_tracked" metric:"wal_emitted_tracked"`
	// RecoveryBacklog is the number of recovered matches still waiting for a
	// first subscriber to redeliver them to.
	RecoveryBacklog uint64 `json:"recovery_backlog" metric:"wal_recovery_backlog"`
}

// MetricsResponse is the GET /v1/metrics payload: the aggregated engine
// view, each shard's raw counters (edges and matches counted on every shard
// that received or found them), and the serving-layer counters. Every
// section is a rendering of one merged snapshot, taken once, which Obs
// carries.
type MetricsResponse struct {
	Engine core.Metrics   `json:"engine"`
	Shards []core.Metrics `json:"shards"`
	Server ServerMetrics  `json:"server"`
	// Obs is the merged registry snapshot of every tier — the server, the
	// shard front-end, each shard worker and the WAL — that the
	// other sections were read from: every counter and gauge, plus the
	// latency histograms (with precomputed summaries) when the daemon runs
	// with observability on. Always present.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	// WAL carries the durability counters when the daemon runs with a data
	// dir (streamworksd -data-dir); absent otherwise.
	WAL *WALMetrics `json:"wal,omitempty"`
}

// WALMetricsFrom reads the durability view out of a snapshot holding a WAL
// tier's series, "degraded" or "ok" by its wal_degraded gauge.
func WALMetricsFrom(s obs.Snapshot) WALMetrics {
	w := WALMetrics{Mode: "ok"}
	if s.Gauge("wal_degraded", "") != 0 {
		w.Mode = "degraded"
	}
	obs.Fill(&w, s, "")
	return w
}
