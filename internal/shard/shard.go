// Package shard parallelizes the StreamWorks continuous query engine across
// hash partitions of the vertex space, the scale-out layer the single-threaded
// core.Engine explicitly defers to ("shard streams across engines for
// parallelism").
//
// A ShardedEngine owns N independent core.Engine workers. The count fixes
// how they run, at construction: above one shard each worker gets its own
// goroutine and input mailbox then, and a lone shard runs on the caller's
// goroutine for its whole life, edges included. Incoming stream edges are
// hash-partitioned by endpoint vertex: an edge is delivered to the shard
// owning its source and the shard owning its target (one delivery when both
// endpoints hash to the same shard), so every shard holds the complete
// neighbourhood of each vertex it owns.
//
// Every complete match has exactly one owner shard, the only one that
// delivers it, so no match reaches the sink twice:
//
//   - A query with a hub vertex — a pattern vertex incident to every pattern
//     edge, as in all the paper's Fig. 3 cyber patterns — is registered on
//     every shard. Each match lies in the neighbourhood of the data vertex
//     bound to the hub (the first such pattern vertex), so that vertex's
//     owner always finds it; the owner delivers it and every other shard
//     that happens to find it too drops it.
//   - A hub-free query (e.g. the paper's Fig. 2 article/keyword/location
//     pattern) is registered on shard 0 only, and the router sends shard 0
//     every edge of the types it constrains besides the edge's endpoint
//     owners. Since that only helps from registration onwards, hub-free
//     queries must be registered before streaming begins
//     (ErrBroadcastRequired otherwise).
//
// The owner counts the match and hands it to the one sink the engine was
// built with (Config.Sink), on the goroutine driving it, under a lock every
// shard delivers under; filtering and fan-out to subscribers belong to the
// tier above. A lone shard owns every match, so its engine's own counts are
// the delivered counts. Stream time is coordinated by sending watermark
// advances to shards that did not receive an edge, keeping window expiry and
// pruning moving on idle partitions. Every shard keeps the same retention: a
// pre-stream registration that widens it widens it on every shard, wherever
// the query lives.
//
// Sources feeding a ShardedEngine must populate endpoint metadata
// (types/attributes) on every stream edge, not only on a vertex's first
// appearance: shards see disjoint subsets of the stream, so "first
// appearance" is a per-shard notion. All generators in internal/gen do this.
//
// Each shard plans a query it holds once, at registration, against its own
// partition's statistics, so two shards may run different plans of one
// query; the owner rule does not depend on the plan.
//
// Every count lives in one registry: each worker engine's own (written by
// the goroutine driving it), which also counts the matches the shard
// delivered, and the front-end's for the registrations and the late edges
// it drops before routing (a lone shard's engine counts those). Metrics and
// ObsSnapshot fold them with obs.Merge.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

// Config controls the sharded front-end.
type Config struct {
	// Shards is the number of engine workers. New, the one place that
	// defaults it, treats a count below 1 as 1: the zero Config runs one
	// shard, on the caller's goroutine.
	Shards int
	// Engine is the configuration applied to every per-shard core.Engine.
	Engine core.Config
	// Sink receives every complete match, invoked on the goroutine driving
	// the owner shard and never twice at once: it must not block, or it
	// stalls every shard and eventually ingestion. Nil drops matches
	// (counters still advance).
	Sink core.MatchSink
}

// mailboxDepth is each shard worker's mailbox capacity in messages; a full
// mailbox blocks the router, which is the backpressure the stream driver
// sees.
const mailboxDepth = 1024

// ShardedEngine drives N core.Engine shards behind the same
// register/process/metrics surface as a single engine. Control methods
// (RegisterQuery, UnregisterQuery, Process, Advance, Metrics, Close) must be
// called from one goroutine — the stream driver.
type ShardedEngine struct {
	workers []*worker
	router  *router

	closed bool // Close was called; the engine is permanently stopped
	// deliver serializes the shards' calls into cfg.Sink.
	deliver sync.Mutex

	// clock follows the stream time routed (edges and Advance) and the
	// retention every shard keeps; it judges lateness, before routing.
	clock         graph.Clock
	lastBroadcast graph.Timestamp
	// advanceEvery is the watermark broadcast step: shards that did not
	// receive an edge are sent an explicit time advance whenever the maximum
	// observed timestamp has moved at least this far since the last
	// broadcast — an eighth of the retention window, or one second when
	// retention is unbounded. Broadcast latency only delays expiry and
	// pruning on idle shards.
	advanceEvery time.Duration

	// reg is the front-end's registry: the registrations gauge.
	reg           *obs.Registry
	registrations *obs.Gauge
	dropped       *obs.Counter // late edges, in a lone shard's registry or reg
}

// New constructs a ShardedEngine and, above one shard, starts its workers'
// goroutines. cfg may be nil, the same as &Config{}: one shard.
func New(cfg *Config) *ShardedEngine {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	adv := time.Second
	if c.Engine.Retention > 0 {
		adv = c.Engine.Retention / 8
	}
	reg := obs.NewRegistry()
	s := &ShardedEngine{
		router:        newRouter(c.Shards),
		advanceEvery:  adv,
		clock:         graph.NewClock(c.Engine.Retention, c.Engine.Slack),
		reg:           reg,
		registrations: reg.Gauge("registrations", "", ""),
	}
	// Normalize the obs config once so the clock is shared.
	obsCfg := c.Engine.Obs.Normalized()
	for i := 0; i < c.Shards; i++ {
		// Same clock (safe for concurrent use), but a private registry,
		// which core.New allocates, so each worker's goroutine writes
		// without sharing cache lines with its siblings.
		engCfg := c.Engine
		engCfg.Obs = obsCfg
		engCfg.Obs.Registry = nil
		eng := core.New(&engCfg)
		w := newWorker(i, c.Shards, eng, &s.deliver, c.Sink)
		if obsCfg.Enabled {
			w.obsClock = obsCfg.Clock
			w.obsMailbox = eng.ObsRegistry().Segment(obs.SegShardMailbox)
			w.obsDispatch = eng.ObsRegistry().Segment(obs.SegDispatch)
		}
		if c.Shards > 1 {
			w.start()
		}
		s.workers = append(s.workers, w)
	}
	if c.Shards == 1 {
		reg = s.workers[0].eng.ObsRegistry()
	}
	s.dropped = reg.Counter("edges_dropped", "", "")
	return s
}

// ObsSnapshot folds the front-end registry and every worker's private
// registry into one logical snapshot. It reads the registries as they stand —
// no worker round trip, so sizes are as of each owner's last refresh — and,
// unlike the control methods, is safe from any goroutine.
func (s *ShardedEngine) ObsSnapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(s.workers)+2)
	snaps = append(snaps, s.reg.Snapshot())
	for _, w := range s.workers {
		snaps = append(snaps, w.eng.ObsRegistry().Snapshot())
	}
	if len(s.workers) == 1 {
		snaps = append(snaps, delivered(snaps[1]))
	}
	return obs.Merge(snaps...)
}

// delivered is a lone shard's delivered-match series: it owns and delivers
// every match its engine finds, so they are the engine's matches_detected
// and query_matches_detected under the names an owner shard counts its
// deliveries by.
func delivered(engine obs.Snapshot) obs.Snapshot {
	var out obs.Snapshot
	for _, c := range engine.Counters {
		switch c.Name {
		case "matches_detected":
			c.Name = "matches_emitted"
		case "query_matches_detected":
			c.Name = "query_matches_emitted"
		default:
			continue
		}
		out.Counters = append(out.Counters, c)
	}
	return out
}

// Exclusive runs fn under the lock every shard delivers under, so fn never
// overlaps a call into Config.Sink. It is safe from any goroutine but a
// sink's own.
func (s *ShardedEngine) Exclusive(fn func()) {
	s.deliver.Lock()
	defer s.deliver.Unlock()
	fn()
}

// Shards returns the number of shard workers.
func (s *ShardedEngine) Shards() int { return len(s.workers) }

// Registration errors specific to the sharded front-end.
var (
	// ErrClosed is returned by Process, RegisterQuery and UnregisterQuery
	// after Close: the mailboxes are gone, so accepting the call would mean
	// either silently dropping work or sending on a stopped mailbox. Close
	// is permanent (and idempotent); build a new engine to stream again.
	ErrClosed = errors.New("shard: engine closed")
	// ErrBroadcastRequired is returned when a query without a hub vertex is
	// registered after edges have been routed: its edge types were
	// endpoint-partitioned rather than also sent to shard 0 up to that
	// point, so shard 0 lacks the history the query needs and matches
	// spanning pre-registration edges would be silently missed. Register
	// hub-free queries before streaming.
	ErrBroadcastRequired = errors.New("shard: hub-free query must be registered before edges are streamed")
)

// RegisterQuery registers a continuous query on its home shards: every
// shard for a query with a hub vertex, shard 0 alone for a hub-free one. It
// can be called before streaming or mid-stream; mid-stream the registration
// takes effect on each shard after the edges already queued in its mailbox,
// so matches completing exactly at the registration instant may differ from
// a single-engine run. Cross-shard consistency is checked up front: a
// mid-stream query needing more retention than is in force fails with
// ErrRetentionTooSmall before touching any shard (matching core.Engine
// semantics), and a mid-stream hub-free query fails with
// ErrBroadcastRequired since its edge types were not being sent to shard 0
// while earlier edges were partitioned. A pre-stream query that widens the
// retention widens it on every shard, so a later hub query sees the same
// window on each. Per-shard failures (duplicate name, plan errors) roll back
// the shards that had accepted.
func (s *ShardedEngine) RegisterQuery(q *query.Graph, opts ...core.RegistrationOption) error {
	if q == nil {
		return core.ErrNilQuery
	}
	if s.closed {
		return ErrClosed
	}
	hub := hubOf(q)
	if s.clock.Admitted() && len(s.workers) > 1 && hub == noHub {
		return fmt.Errorf("%w: %q", ErrBroadcastRequired, q.Name())
	}
	// The clock widens on a copy, kept once every home shard has accepted.
	clock := s.clock
	if !clock.Extend(q.Window()) {
		return fmt.Errorf("shard: registering %q: %w: query window %s exceeds retention %s mid-stream",
			q.Name(), core.ErrRetentionTooSmall, q.Window(), s.clock.Window())
	}
	home := s.home(hub)
	for i, w := range home {
		if err := w.register(q, opts, hub); err != nil {
			for _, r := range home[:i] {
				// Roll back the shards that accepted the registration.
				_ = r.unregister(q.Name())
			}
			return fmt.Errorf("shard %d: %w", w.id, err)
		}
	}
	if clock.Window() != s.clock.Window() {
		for _, w := range s.workers[len(home):] {
			// Cannot fail: no shard has seen an edge (checked above).
			w.do(func() { _ = w.eng.ExtendRetention(q.Window()) })
		}
	}
	s.clock = clock
	s.router.add(q.Name(), q)
	s.registrations.Set(int64(len(s.router.byQuery)))
	return nil
}

// home returns the shards a query with the given hub is registered on: a
// prefix of s.workers.
func (s *ShardedEngine) home(hub query.VertexID) []*worker {
	if hub == noHub {
		return s.workers[:1]
	}
	return s.workers
}

// UnregisterQuery removes a registration from the shards it lives on.
// Partial matches held for the query are dropped with it, and so are its
// series: a later registration under the same name counts from zero.
func (s *ShardedEngine) UnregisterQuery(name string) error {
	if s.closed {
		return ErrClosed
	}
	qr, ok := s.router.byQuery[name]
	if !ok {
		return fmt.Errorf("shard: %w: %q", core.ErrUnknownQuery, name)
	}
	var firstErr error
	for _, w := range s.home(qr.hub) {
		if err := w.unregister(name); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", w.id, err)
		}
	}
	if firstErr == nil {
		s.router.remove(name)
		s.registrations.Set(int64(len(s.router.byQuery)))
	}
	return firstErr
}

// Start does nothing: New starts the workers' goroutines above one shard,
// and a lone shard never has one. It is kept only because benchmark/ calls
// it.
func (s *ShardedEngine) Start() {}

// Process routes one stream edge to the shards that need it and broadcasts a
// watermark advance to the others when stream time has moved far enough. A
// late edge (graph.Clock) is counted and dropped before it is routed. It
// returns ErrClosed after Close.
func (s *ShardedEngine) Process(se graph.StreamEdge) error {
	return s.ProcessContext(context.Background(), se)
}

// ProcessContext is Process with a cancellation bound: on a lone shard, a
// done ctx refuses the edge; above one, ctx bounds the blocking mailbox
// hand-off, and when the shards cannot accept the edge before ctx is done,
// it returns the context error. Cancellation can interrupt a multi-shard
// delivery part-way; the edge may then have reached a subset of its shards,
// exactly as if the stream had been cut at that point.
func (s *ShardedEngine) ProcessContext(ctx context.Context, se graph.StreamEdge) error {
	if s.closed {
		return ErrClosed
	}
	if s.clock.Late(se.Edge.Timestamp) {
		s.dropped.Inc()
		return nil
	}
	dests := s.router.route(se)
	for i, d := range dests {
		if err := s.workers[d].edge(ctx, se); err != nil {
			if i > 0 {
				// At least one shard already consumed the edge under
				// endpoint-partition routing: the stream is no longer
				// pristine, so the registration guards must still engage.
				s.clock.Admit()
			}
			return err
		}
	}
	s.clock.Admit()
	ts := se.Edge.Timestamp
	if _, seen := s.clock.Newest(); !seen {
		s.lastBroadcast = ts
	}
	s.clock.AdvanceTo(ts)
	newest, _ := s.clock.Newest()
	if len(dests) == len(s.workers) {
		// An edge every shard receives carries stream time by itself.
		s.lastBroadcast = newest
	} else if newest.Sub(s.lastBroadcast) >= s.advanceEvery {
		for _, w := range s.workers {
			if !slices.Contains(dests, w.id) {
				w.advance(newest)
			}
		}
		s.lastBroadcast = newest
	}
	return nil
}

// Advance broadcasts an explicit stream-time signal to every shard, exactly
// like Dynamic.AdvanceTo on a single engine (the watermark trails ts by the
// configured slack). It always reaches every shard — even when ts does not
// exceed the maximum routed timestamp — because edge-time broadcasts are
// throttled by the broadcast step and individual shards may lag well behind
// it; per-shard watermarks are monotone, so a stale signal is harmless.
func (s *ShardedEngine) Advance(ts graph.Timestamp) {
	if s.closed {
		return
	}
	s.clock.AdvanceTo(ts)
	if ts > s.lastBroadcast {
		s.lastBroadcast = ts
	}
	for _, w := range s.workers {
		w.advance(ts)
	}
}

// Flush is a full-pipeline barrier: it returns only after every edge,
// advance and control message enqueued before the call has been processed
// by its shard AND every match those messages produced has been delivered
// to the sink — a worker delivers a match before it takes its next message.
// A lone shard has nothing to wait for: every call has delivered its
// matches by the time it returns. Recovery uses it to know that replaying
// the log tail has surfaced every re-derivable match before it compares them
// against the checkpointed emitted-set. Like Process, Flush must not race
// with Close.
func (s *ShardedEngine) Flush() error {
	if s.closed {
		return ErrClosed
	}
	for _, w := range s.workers {
		w.do(func() {})
	}
	return nil
}

// Close drains the mailboxes and stops the workers, returning after the
// final sink call; their engines are then the caller's, as a lone shard's
// is, so metrics stay readable. Close is idempotent and permanent: Process
// returns ErrClosed, and a second Close returns immediately.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.workers {
		if w.in != nil {
			close(w.in) // the worker drains its mailbox and exits
		}
	}
	for _, w := range s.workers {
		w.done.Wait()
		w.in = nil
	}
}

// PerShardMetrics snapshots every shard engine's counters in shard order:
// see Snapshot. Per-shard counters include edges sent to two or three
// shards, and per-shard match counts include the matches a shard found but
// did not own; serving layers expose them so operators can spot skewed
// partitions.
func (s *ShardedEngine) PerShardMetrics() []core.Metrics {
	_, perShard, _ := s.Snapshot()
	return perShard
}

// Metrics is the sharded engine's aggregate view: see Snapshot. A lone
// shard's view is its engine's own, read with no merge.
func (s *ShardedEngine) Metrics() core.Metrics {
	if len(s.workers) == 1 {
		return s.workers[0].eng.Metrics()
	}
	m, _, _ := s.Snapshot()
	return m
}

// Snapshot reads the sharded engine once — the front-end's registry, then
// every worker's, each refreshing its gauges first — and returns the merged
// reading with the aggregate and per-shard views built from it, which always
// agree. Aggregate work counters are sums over shards and so include edges
// sent to more than one shard; MatchesEmitted and per-query Matches sum what
// each shard delivered, which counts each match once, and Registrations and
// the late edges among EdgesDropped are the front-end's. A lone shard's view
// is its engine's own, whose counts are the delivered counts. Like all
// control methods it must be called from the driver goroutine.
func (s *ShardedEngine) Snapshot() (core.Metrics, []core.Metrics, obs.Snapshot) {
	if len(s.workers) == 1 {
		m, snap := s.workers[0].snapshot()
		return m, []core.Metrics{m}, obs.Merge(s.reg.Snapshot(), snap, delivered(snap))
	}
	snaps := []obs.Snapshot{s.reg.Snapshot()}
	perShard := make([]core.Metrics, len(s.workers))
	for i, w := range s.workers {
		var snap obs.Snapshot
		perShard[i], snap = w.snapshot()
		snaps = append(snaps, snap)
	}
	merged := obs.Merge(snaps...)
	m := foldPlans(perShard)
	core.FillMetrics(&m, merged)
	m.MatchesEmitted = merged.Counter("matches_emitted", "")
	m.Registrations = uint64(merged.Gauge("registrations", ""))
	for i := range m.Queries {
		m.Queries[i].Matches = merged.Counter("query_matches_emitted", m.Queries[i].Name)
	}
	return m, perShard, merged
}

// foldPlans merges what the shards describe rather than count: each query's
// plan detail, its coverage views (mqo.Attachment.PartialMatches and
// LeafSearches, summed over the shards it lives on) and the DAG's per-node
// statistics (mqo.MergeStats). Shard 0 holds every query, so the queries
// come out in its registration order. Each shard plans against its own
// partition's statistics, so the plans of one query can differ per shard:
// the plan detail is that of the first shard listing the query. The match
// set does not depend on the shards agreeing — only a match's owner
// delivers it.
func foldPlans(perShard []core.Metrics) core.Metrics {
	var m core.Metrics
	idx := map[string]int{}
	dags := make([]mqo.Stats, len(perShard))
	for i, sm := range perShard {
		dags[i] = sm.MQO
		for _, qm := range sm.Queries {
			j, ok := idx[qm.Name]
			if !ok {
				j = len(m.Queries)
				idx[qm.Name] = j
				m.Queries = append(m.Queries, core.QueryMetrics{
					Name: qm.Name, Strategy: qm.Strategy, PlanNodes: qm.PlanNodes, PlanDepth: qm.PlanDepth,
				})
			}
			q := &m.Queries[j]
			q.PartialMatches += qm.PartialMatches
			q.LocalSearches += qm.LocalSearches
		}
	}
	m.MQO = mqo.MergeStats(dags...)
	return m
}
