// Package streamworks is the public API of the StreamWorks continuous graph
// query system (Choudhury et al., SIGMOD 2013): register graph queries once,
// stream timestamped edges in, and have complete matches pushed to you as
// the stream evolves.
//
// One Engine interface fronts two backends, reached by two constructors:
//
//   - New: the in-process engine, driven on the caller's goroutine, so
//     matches reach their sinks before ProcessBatch returns.
//   - Connect: a remote engine served by a streamworksd daemon over HTTP
//     (wraps the typed client).
//
// Both deliver matches the same way: per-query push subscriptions.
// Subscribe registers a MatchSink for one query (or all), the engine invokes
// it once for every complete match, and Done on the returned
// Subscription closes after the final delivery. There is no polling surface
// and no scratch-buffer aliasing to get wrong: every Match handed to a sink
// is safe to retain. Subscriptions that admit the same match are handed one
// report, and the reports of one match — the queries of a shared plan's
// consumer group all match the same data subgraph — may share their Bindings
// and EdgeIDs slices, so a sink must not modify either.
//
// Engines are safe for concurrent use. Close is idempotent; ProcessBatch
// after Close returns ErrClosed instead of panicking; the context passed to
// blocking calls bounds them.
package streamworks

import (
	"context"
	"errors"
	"time"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

// Re-exported data types. These alias the engine's own types, so values flow
// between the public API and the internal packages without conversion while
// external importers can still name every type they need.
type (
	// Query is a continuous graph query: a small pattern graph of typed,
	// attribute-constrained vertices and edges with an optional time window.
	// Build one with ParseQuery (the text DSL) or the internal builder.
	Query = query.Graph

	// StreamEdge is the unit of arrival: an edge plus endpoint metadata.
	StreamEdge = graph.StreamEdge

	// Edge is a directed, typed, timestamped, attributed data-graph edge.
	Edge = graph.Edge

	// VertexID identifies a data-graph vertex; IDs are assigned by the
	// stream source.
	VertexID = graph.VertexID

	// EdgeID identifies a data-graph edge, unique across the whole stream.
	EdgeID = graph.EdgeID

	// Timestamp is nanoseconds since the Unix epoch; only differences and
	// ordering matter to the engine.
	Timestamp = graph.Timestamp

	// Metrics is a snapshot of engine counters, including per-query detail.
	Metrics = core.Metrics

	// EngineConfig is the low-level per-engine configuration. Most callers
	// use the functional options instead; WithEngineConfig accepts a full
	// EngineConfig for embedders that manage one themselves.
	EngineConfig = core.Config

	// Match is one complete match, resolved for consumption: the query
	// name, detection and span timestamps, the variable bindings, the data
	// edge IDs, and a canonical Signature that identifies the match across
	// engines, runs and the wire (equal (Query, Signature) ⇔ same match).
	// A Match is immutable and may be kept, but its Signature, Bindings and
	// EdgeIDs are carved from 8 KiB chunks shared with other matches, which a
	// retained Match keeps alive: copy what you keep long-term.
	Match = export.MatchReport

	// ServerInfo describes a remote daemon, as reported by its health
	// endpoint.
	ServerInfo = api.HealthResponse

	// ObsSnapshot is a point-in-time copy of an engine's metric registries —
	// every counter and gauge, plus the per-segment latency histograms with
	// summary statistics when the engine's EngineConfig.Obs is enabled — as
	// returned by Sharded.ObsSnapshot.
	ObsSnapshot = obs.Snapshot
)

// ParseQuery parses a query written in the text DSL:
//
//	query smurf-ddos
//	window 30s
//	vertex atk : Host
//	vertex amp : Host
//	vertex vic : Host
//	edge atk -[icmp-req]-> amp
//	edge amp -[icmp-reply]-> vic
func ParseQuery(dsl string) (*Query, error) { return query.ParseString(dsl) }

// FormatQuery renders q back into the text DSL accepted by ParseQuery.
// ParseQuery(FormatQuery(q)) is structurally identical to q.
func FormatQuery(q *Query) string { return query.Format(q) }

// TimestampFromTime converts a wall-clock time into a stream Timestamp.
func TimestampFromTime(t time.Time) Timestamp { return graph.TimestampFromTime(t) }

// API errors. Backend-specific failures (plan errors, transport errors) are
// returned as-is; these sentinels cover the conditions every backend shares,
// and errors.Is matches them across both.
var (
	// ErrClosed is returned by every mutating call after Close.
	ErrClosed = errors.New("streamworks: engine closed")
	// ErrDuplicateQuery is returned when a query with the same name is
	// already registered.
	ErrDuplicateQuery = core.ErrDuplicateQuery
	// ErrUnknownQuery is returned by UnregisterQuery and Subscribe for
	// names that are not registered.
	ErrUnknownQuery = core.ErrUnknownQuery
	// ErrNilQuery is returned by RegisterQuery(nil).
	ErrNilQuery = core.ErrNilQuery
	// ErrUnnamedQuery is returned when the query has no name (no
	// "query <name>" line): a query is addressed by its name everywhere —
	// Subscribe, UnregisterQuery, match reports, the write-ahead log.
	ErrUnnamedQuery = core.ErrUnnamedQuery
)

// RegisterOptions carries one query's plan settings for RegisterQueryWith;
// no engine-wide default sits behind them. Strategy names the decomposition
// strategy (one of PlanStrategies); empty — the zero value — means
// "selective" and makes RegisterQueryWith equivalent to RegisterQuery. A
// query is planned once, at registration, from the statistics of the window
// as it is then, and keeps that plan; to change it, unregister and register
// it again. A Remote sends the settings as POST /v1/queries parameters.
type RegisterOptions = api.RegisterOptions

// PlanStrategies lists the decomposition strategy names accepted by
// RegisterOptions.Strategy, in a stable order. The first entry, "selective"
// (the paper's selectivity-ordered decomposition), is the default.
func PlanStrategies() []string {
	ss := decompose.Strategies()
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = string(s)
	}
	return out
}

// MatchSink consumes pushed matches. OnMatch is invoked sequentially per
// subscription — in process on the goroutine driving the engine, over the
// wire on the subscription's own: implementations must be fast and must not
// call back into the engine, or they stall match delivery — and eventually
// ingestion — behind themselves.
type MatchSink interface {
	OnMatch(Match)
}

// SinkFunc adapts a plain function to MatchSink.
type SinkFunc func(Match)

// OnMatch implements MatchSink.
func (f SinkFunc) OnMatch(m Match) { f(m) }

// Subscription is a live per-query match subscription.
type Subscription interface {
	// Done is closed after the final OnMatch delivery: the engine closed
	// and drained, the remote stream ended, or Close was called.
	Done() <-chan struct{}
	// Err reports why delivery ended, once Done is closed: nil for a clean
	// end (engine drain or local Close), the transport error otherwise.
	Err() error
	// Close cancels the subscription. Idempotent; a delivery already in
	// flight may still arrive concurrently with Close.
	Close() error
}

// Engine is the StreamWorks system surface, implemented by every backend
// (Sharded, built by New, and Remote, built by Connect — and
// every future one). The contract:
//
//   - RegisterQuery installs a continuous query; matches of that query
//     begin flowing to matching subscriptions. An unnamed query returns
//     ErrUnnamedQuery, a duplicate name ErrDuplicateQuery.
//     RegisterQueryWith is the same with the query's own plan strategy;
//     RegisterQuery(ctx, q) ≡ RegisterQueryWith(ctx, q, RegisterOptions{}),
//     selective.
//   - ProcessBatch ingests timestamped edges — one edge is a batch of one —
//     which must arrive in non-decreasing timestamp order up to the
//     engine's slack. ctx bounds the call; the in-process engine checks it
//     between edges and has delivered every match the batch completed by
//     the time it returns.
//   - Advance signals the passage of stream time in the absence of edges,
//     driving window expiry and pruning.
//   - Subscribe attaches a MatchSink for one query ("" for all).
//   - Metrics snapshots counters (still available after Close).
//   - Close shuts delivery down: idempotent, and every Subscription's Done
//     closes after its final delivery. Mutating calls after Close return
//     ErrClosed.
type Engine interface {
	RegisterQuery(ctx context.Context, q *Query) error
	RegisterQueryWith(ctx context.Context, q *Query, opts RegisterOptions) error
	UnregisterQuery(ctx context.Context, name string) error
	ProcessBatch(ctx context.Context, edges []StreamEdge) error
	Advance(ctx context.Context, ts Timestamp) error
	Subscribe(queryFilter string, sink MatchSink) (Subscription, error)
	Metrics(ctx context.Context) (Metrics, error)
	Close() error
}
