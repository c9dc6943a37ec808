// Package shard parallelizes the StreamWorks continuous query engine across
// hash partitions of the vertex space, the scale-out layer the single-threaded
// core.Engine explicitly defers to ("shard streams across engines for
// parallelism").
//
// A ShardedEngine owns N independent core.Engine workers, each with its own
// goroutine and input mailbox. Incoming stream edges are hash-partitioned by
// endpoint vertex: an edge is delivered to the shard owning its source and the
// shard owning its target (one delivery when both endpoints hash to the same
// shard), so every shard holds the complete neighborhood of each vertex it
// owns. Query registrations are replicated to every shard; for a query with a
// hub vertex — a pattern vertex incident to every pattern edge — each match is
// fully contained in the neighborhood of the data vertex bound to the hub, so
// endpoint routing alone guarantees the shard owning that vertex discovers it.
// Queries without a hub vertex (e.g. the paper's Fig. 2 article/keyword/
// location pattern) are handled by broadcasting edges of the types they
// constrain to every shard, trading redundant work for correctness; since
// that only helps from registration onwards, hub-free queries must be
// registered before streaming begins (ErrBroadcastRequired otherwise).
//
// Because routing replicates edges, the same complete match can surface on
// more than one shard. All shard outputs are funneled onto one merge channel
// and deduplicated by canonical match key (query name plus the sorted
// pattern-edge → data-edge binding), so replication never double-reports.
// Deduplicated matches are pushed to the one sink the engine was built with
// (Config.Sink); filtering and fan-out to subscribers belong to the tier
// above. Stream time is coordinated by broadcasting watermark advances to
// shards that did not receive an edge, keeping window expiry and SJ-tree
// pruning moving on idle partitions.
//
// Sources feeding a ShardedEngine must populate endpoint metadata
// (types/attributes) on every stream edge, not only on a vertex's first
// appearance: shards see disjoint subsets of the stream, so "first
// appearance" is a per-shard notion. All generators in internal/gen do this.
//
// Adaptive re-planning (core.WithAdaptive, replicated like every other
// registration option) runs independently on each shard: a shard re-plans
// against its own partition's statistics on its own worker goroutine, so no
// cross-shard coordination or stop-the-world pause is needed. The merged
// match set stays canonical through two dedup layers — each shard's engine
// deduplicates its own emissions across swap boundaries (the new tree
// inherits the emitted-set), and the merger deduplicates identical matches
// across shards exactly as it does for replicated edges. Metrics report the
// maximum plan generation and the summed replan count across shards.
//
// Every count lives in one registry: each worker engine's own (written by its
// goroutine), and the front-end's for what must not be summed over workers —
// the registrations and the matches that passed the merger. Metrics and
// ObsSnapshot fold them with obs.Merge.
package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

// Config controls the sharded front-end.
type Config struct {
	// Shards is the number of engine workers. Values below 1 are treated
	// as 1.
	Shards int
	// Engine is the configuration applied to every per-shard core.Engine.
	Engine core.Config
	// Sink receives every deduplicated match, invoked on the merger
	// goroutine: it must not block, or it stalls merging and eventually
	// ingestion. Nil drops matches (counters still advance).
	Sink core.MatchSink
}

// DefaultConfig returns a four-way sharding of core.DefaultConfig engines.
func DefaultConfig() Config {
	return Config{Shards: 4, Engine: core.DefaultConfig()}
}

// mailboxDepth is each shard worker's mailbox capacity in messages; a full
// mailbox blocks the router, which is the backpressure the stream driver
// sees.
const mailboxDepth = 1024

// ShardedEngine drives N core.Engine shards behind the same
// register/process/metrics surface as a single engine. Control methods
// (RegisterQuery, UnregisterQuery, Process, Advance, Metrics, Start, Close)
// must be called from one goroutine — the stream driver.
type ShardedEngine struct {
	cfg     Config
	workers []*worker
	router  *router
	dedup   *dedup

	running    bool
	closed     bool            // Close was called; the engine is permanently stopped
	out        chan shardEvent // workers → merger (events + progress marks)
	mergerDone chan struct{}   // closed after the final sink call, see Done

	seenTS        bool
	maxTS         graph.Timestamp
	lastBroadcast graph.Timestamp
	edgesRouted   uint64
	// advanceEvery is the watermark broadcast step: shards that did not
	// receive an edge are sent an explicit time advance whenever the maximum
	// observed timestamp has moved at least this far since the last
	// broadcast — an eighth of the retention window, or one second when
	// retention is unbounded. Broadcast latency only delays expiry and
	// pruning on idle shards; the match set is unaffected because match
	// admission checks the temporal span directly.
	advanceEvery time.Duration
	// retention is the effective per-shard retention: the configured value,
	// widened by pre-ingest registrations exactly as core.extendRetention
	// widens it on each shard. Zero means unbounded.
	retention time.Duration

	// reg is the front-end's registry: the registrations gauge, the merger's
	// counts and sizes (dedup), and the dispatch segment.
	reg           *obs.Registry
	registrations *obs.Gauge
	// obsClock and obsDispatch time the merger hop; nil unless observability
	// is enabled.
	obsClock    obs.Clock
	obsDispatch *obs.Histogram
}

// New constructs a stopped ShardedEngine. cfg may be nil for DefaultConfig.
func New(cfg *Config) *ShardedEngine {
	c := DefaultConfig()
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
		cfg:           c,
		router:        newRouter(c.Shards),
		dedup:         newDedup(c.Engine.Retention, c.Engine.Slack, reg),
		mergerDone:    make(chan struct{}),
		advanceEvery:  adv,
		retention:     c.Engine.Retention,
		reg:           reg,
		registrations: reg.Gauge("registrations", "", ""),
	}
	// Normalize the obs config once so the clock is shared.
	obsCfg := c.Engine.Obs.Normalized()
	if obsCfg.Enabled {
		s.obsClock = obsCfg.Clock
		s.obsDispatch = reg.Segment(obs.SegDispatch)
	}
	for i := 0; i < c.Shards; i++ {
		// Same clock (safe for concurrent use), but a private registry,
		// which core.New allocates, so each worker's goroutine writes
		// without sharing cache lines with its siblings.
		engCfg := c.Engine
		engCfg.Obs = obsCfg
		engCfg.Obs.Registry = nil
		w := &worker{id: i, eng: core.New(&engCfg)}
		if obsCfg.Enabled {
			w.obsClock = obsCfg.Clock
			w.obsMailbox = w.eng.ObsRegistry().Segment(obs.SegShardMailbox)
		}
		s.workers = append(s.workers, w)
	}
	return s
}

// ObsSnapshot folds the front-end registry and every worker's private
// registry into one logical snapshot. It reads the registries as they stand —
// no worker round trip, so sizes are as of each owner's last refresh — and,
// unlike the control methods, is safe from any goroutine.
func (s *ShardedEngine) ObsSnapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(s.workers)+1)
	snaps = append(snaps, s.reg.Snapshot())
	for _, w := range s.workers {
		snaps = append(snaps, w.eng.ObsRegistry().Snapshot())
	}
	return obs.Merge(snaps...)
}

// Shards returns the number of shard workers.
func (s *ShardedEngine) Shards() int { return len(s.workers) }

// Registration errors specific to the sharded front-end.
var (
	// ErrNotRunning is returned by Process when Start has not been called.
	ErrNotRunning = errors.New("shard: engine not running (call Start)")
	// ErrClosed is returned by Process, RegisterQuery and UnregisterQuery
	// after Close: the mailboxes are gone, so accepting the call would mean
	// either silently dropping work or sending on a stopped mailbox. Close
	// is permanent (and idempotent); build a new engine to stream again.
	ErrClosed = errors.New("shard: engine closed")
	// ErrBroadcastRequired is returned when a query without a hub vertex is
	// registered after edges have been routed: its edge types were
	// endpoint-partitioned rather than broadcast up to that point, so shards
	// lack the history the query needs and matches spanning pre-registration
	// edges would be silently missed. Register hub-free queries before
	// streaming.
	ErrBroadcastRequired = errors.New("shard: hub-free query must be registered before edges are streamed")
)

// RegisterQuery replicates a continuous query registration onto every shard.
// It can be called before Start or mid-stream; mid-stream the registration
// takes effect on each shard after the edges already queued in its mailbox,
// so matches completing exactly at the registration instant may differ from a
// single-engine run. Cross-shard consistency is checked up front: a
// mid-stream query needing more retention than is in force fails with
// ErrRetentionTooSmall before touching any shard (matching core.Engine
// semantics), and a mid-stream hub-free query fails with
// ErrBroadcastRequired since its edge types were not being broadcast while
// earlier edges were partitioned. Per-shard failures (duplicate name, plan
// errors) roll back the shards that had accepted.
func (s *ShardedEngine) RegisterQuery(q *query.Graph, opts ...core.RegistrationOption) error {
	if q == nil {
		return core.ErrNilQuery
	}
	if s.closed {
		return ErrClosed
	}
	if s.edgesRouted > 0 && len(s.workers) > 1 && !hasHubVertex(q) {
		return fmt.Errorf("%w: %q", ErrBroadcastRequired, q.Name())
	}
	widens := q.Window() > 0 && s.retention != 0 && q.Window() > s.retention
	if widens && s.edgesRouted > 0 {
		return fmt.Errorf("shard: registering %q: %w: query window %s exceeds retention %s mid-stream",
			q.Name(), core.ErrRetentionTooSmall, q.Window(), s.retention)
	}
	done := make([]string, 0, len(s.workers))
	var regErr error
	for _, w := range s.workers {
		name, err := w.register(s.running, q, opts)
		if err != nil {
			regErr = fmt.Errorf("shard %d: %w", w.id, err)
			break
		}
		done = append(done, name)
	}
	if regErr != nil {
		for i, name := range done {
			// Roll back the shards that accepted the registration.
			_ = s.workers[i].unregister(s.running, name)
		}
		return regErr
	}
	if widens {
		s.retention = q.Window()
	}
	s.router.add(done[0], q)
	s.registrations.Set(int64(len(s.router.byQuery)))
	s.dedup.noteWindow(q.Window())
	return nil
}

// UnregisterQuery removes a registration from every shard. Partial matches
// held for the query are dropped with it; in-flight duplicates already queued
// on the merge channel remain deduplicated.
func (s *ShardedEngine) UnregisterQuery(name string) error {
	if s.closed {
		return ErrClosed
	}
	var firstErr error
	for _, w := range s.workers {
		if err := w.unregister(s.running, name); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", w.id, err)
		}
	}
	if firstErr == nil {
		s.router.remove(name)
		s.registrations.Set(int64(len(s.router.byQuery)))
	}
	return firstErr
}

// Start spawns the shard workers and the deduplicating merger. It is a no-op
// when already running or after Close.
func (s *ShardedEngine) Start() {
	if s.running || s.closed {
		return
	}
	s.out = make(chan shardEvent, 64*len(s.workers))
	for _, w := range s.workers {
		w.start(s.out)
	}
	go s.merge()
	s.running = true
}

// merge funnels all shard outputs through the duplicate filter into the
// sink. It exits when Close closes the merge channel after all workers have
// drained. Progress marks from the shards drive dedup eviction: the minimum
// observed shard watermark bounds, via channel FIFO order, which duplicates
// can still be in flight.
func (s *ShardedEngine) merge() {
	defer close(s.mergerDone)
	marks := make([]graph.Timestamp, len(s.workers))
	marked := make([]bool, len(s.workers))
	for se := range s.out {
		if se.flush != nil {
			close(se.flush)
			continue
		}
		if se.mark {
			if se.ts > marks[se.id] || !marked[se.id] {
				marks[se.id], marked[se.id] = se.ts, true
			}
			if min, ok := minMark(marks, marked); ok {
				s.dedup.expire(min)
			}
			s.dedup.refresh()
			continue
		}
		if s.dedup.admit(se.ev) {
			s.deliver(se.ev)
		}
	}
}

// deliver hands one admitted match to the sink.
func (s *ShardedEngine) deliver(ev core.MatchEvent) {
	if s.obsDispatch != nil && ev.EmittedWallNS != 0 {
		// Dispatch latency: core emission → deduplicated delivery, i.e. the
		// merge channel hop a match takes after the SJ-tree surfaces it.
		s.obsDispatch.Observe(s.obsClock.Now() - ev.EmittedWallNS)
	}
	if s.cfg.Sink != nil {
		s.cfg.Sink.OnMatch(ev)
	}
}

// minMark returns the minimum shard watermark once every shard has reported
// at least one progress mark.
func minMark(marks []graph.Timestamp, marked []bool) (graph.Timestamp, bool) {
	min := graph.Timestamp(0)
	for i, ts := range marks {
		if !marked[i] {
			return 0, false
		}
		if i == 0 || ts < min {
			min = ts
		}
	}
	return min, true
}

// Done is closed once no further match can reach the sink: after the final
// sink call of a running engine's Close, or at Close of one never started.
func (s *ShardedEngine) Done() <-chan struct{} { return s.mergerDone }

// Process routes one stream edge to the shards that need it and broadcasts a
// watermark advance to the others when stream time has moved far enough.
// Edges must be supplied in non-decreasing timestamp order up to the
// configured slack, as with a single engine. It returns ErrNotRunning when
// called before Start and ErrClosed after Close.
func (s *ShardedEngine) Process(se graph.StreamEdge) error {
	return s.ProcessContext(context.Background(), se)
}

// ProcessContext is Process with a cancellation bound on the blocking
// mailbox hand-off: when the shards cannot accept the edge before ctx is
// done, it returns the context error. Cancellation can interrupt a
// multi-shard delivery part-way; the edge may then have reached a subset of
// its shards, exactly as if the stream had been cut at that point.
func (s *ShardedEngine) ProcessContext(ctx context.Context, se graph.StreamEdge) error {
	if s.closed {
		return ErrClosed
	}
	if !s.running {
		return ErrNotRunning
	}
	dests := s.router.route(se)
	for i, d := range dests {
		if err := s.workers[d].enqueueEdge(ctx, se); err != nil {
			if i > 0 {
				// At least one shard already consumed the edge under
				// endpoint-partition routing: the stream is no longer
				// pristine, so the hub-free registration guard
				// (edgesRouted > 0) must still engage.
				s.edgesRouted++
			}
			return err
		}
	}
	s.edgesRouted++
	ts := se.Edge.Timestamp
	if !s.seenTS || ts > s.maxTS {
		s.maxTS = ts
		if !s.seenTS {
			s.seenTS = true
			s.lastBroadcast = ts
		}
	}
	if len(dests) == len(s.workers) {
		// A broadcast edge carries stream time to every shard by itself.
		s.lastBroadcast = s.maxTS
	} else if s.maxTS.Sub(s.lastBroadcast) >= s.advanceEvery {
		for _, w := range s.workers {
			if w.id != dests[0] && (len(dests) < 2 || w.id != dests[1]) {
				w.enqueueAdvance(s.maxTS)
			}
		}
		s.lastBroadcast = s.maxTS
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
	if !s.seenTS || ts > s.maxTS {
		s.maxTS, s.seenTS = ts, true
	}
	if ts > s.lastBroadcast {
		s.lastBroadcast = ts
	}
	for _, w := range s.workers {
		if s.running {
			w.enqueueAdvance(ts)
		} else {
			w.eng.Advance(ts)
		}
	}
}

// Flush is a full-pipeline barrier: it returns only after every edge,
// advance and control message enqueued before the call has been processed
// by its shard AND every match those messages produced has been delivered
// through the merger to the sink. Recovery uses it to know that
// replaying the log tail has surfaced every re-derivable match before it
// compares them against the checkpointed emitted-set. Like Process, Flush
// must not race with Close.
//
// Ordering argument: each worker's flush acknowledgment happens after its
// earlier merge-channel sends completed (same goroutine), and this
// goroutine's sentinel send happens after every acknowledgment was
// received, so channel FIFO delivers the sentinel to the merger after all
// of those events; the merger closes the sentinel only when it reaches it.
func (s *ShardedEngine) Flush() error {
	if s.closed {
		return ErrClosed
	}
	if !s.running {
		return ErrNotRunning
	}
	for _, w := range s.workers {
		w.flush()
	}
	done := make(chan struct{})
	s.out <- shardEvent{flush: done}
	<-done
	return nil
}

// Close flushes the mailboxes and stops the workers and the merger; Done
// closes after the final delivery. Close is idempotent and permanent: a
// closed engine cannot be restarted, Process returns ErrClosed, and a second
// Close returns immediately.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.running {
		close(s.mergerDone) // never started: no merger will
		return
	}
	for _, w := range s.workers {
		w.stop()
	}
	for _, w := range s.workers {
		w.wait()
	}
	close(s.out)
	<-s.mergerDone
	s.running = false
}

// PerShardMetrics snapshots every shard engine's counters in shard order:
// see Snapshot. Per-shard counters include replicated edges, and per-shard
// match counts are pre-deduplication; serving layers expose them so operators
// can spot skewed partitions.
func (s *ShardedEngine) PerShardMetrics() []core.Metrics {
	_, perShard, _ := s.Snapshot()
	return perShard
}

// Metrics is the sharded engine's aggregate view: see Snapshot.
func (s *ShardedEngine) Metrics() core.Metrics {
	m, _, _ := s.Snapshot()
	return m
}

// Snapshot reads the sharded engine once — the front-end's registry, then
// every worker's, each refreshing its gauges first (so every match the merger
// has admitted was counted by its worker) — and returns the merged reading
// with the aggregate and per-shard views built from it, which always agree.
// Aggregate work counters are sums over shards and so include replicated
// edges; MatchesEmitted, per-query Matches and Registrations are the
// front-end's. Like all control methods it must be called from the driver
// goroutine.
func (s *ShardedEngine) Snapshot() (core.Metrics, []core.Metrics, obs.Snapshot) {
	s.dedup.refresh()
	snaps := []obs.Snapshot{s.reg.Snapshot()}
	perShard := make([]core.Metrics, len(s.workers))
	for i, w := range s.workers {
		var snap obs.Snapshot
		perShard[i], snap = w.snapshot(s.running)
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
// LeafSearches, summed) and the DAG's per-node statistics (mqo.MergeStats).
// Each shard re-plans against its own partition's statistics, so plan state
// can legitimately differ per shard: the newest generation wins, with that
// shard's tree shape and last audit. Match-set canonicality does not depend
// on the shards agreeing — every shard deduplicates its own emissions across
// swap boundaries and the merger deduplicates across shards.
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
				m.Queries = append(m.Queries, core.QueryMetrics{Name: qm.Name, Strategy: qm.Strategy})
			}
			q := &m.Queries[j]
			q.PartialMatches += qm.PartialMatches
			q.LocalSearches += qm.LocalSearches
			q.Adaptive = q.Adaptive || qm.Adaptive
			if qm.PlanGeneration > q.PlanGeneration {
				q.PlanGeneration, q.PlanNodes, q.PlanDepth = qm.PlanGeneration, qm.PlanNodes, qm.PlanDepth
				q.Strategy, q.LastReplanAudit = qm.Strategy, qm.LastReplanAudit
			}
		}
	}
	m.MQO = mqo.MergeStats(dags...)
	return m
}
