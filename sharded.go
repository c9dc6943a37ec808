package streamworks

import (
	"context"
	"slices"
	"sync"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/wal"
)

// Sharded is the in-process backend: N core engines over hash partitions of
// the vertex space, each match delivered to subscriptions by the one shard
// that owns it. Above one shard every shard runs on its own goroutine and
// delivers on it; a single shard (New) runs its engine on the calling
// goroutine, so its sinks run inside ProcessBatch and the call returning is
// the delivery barrier. Subscribe and subscription teardown never wait
// behind ingestion.
type Sharded struct {
	frontend
	// mu serializes the sharded engine's single-driver control surface, so
	// the public concurrency contract holds. A shard goroutine's delivery
	// never takes it, or a blocked ingest could deadlock it; a single
	// shard delivers inside the call holding it.
	mu  sync.Mutex
	eng *shard.ShardedEngine
}

// Local is the name New returned when it built a backend of its own; it
// is kept only because benchmark/ names it.
type Local = Sharded

var _ Engine = (*Sharded)(nil)

// New builds the single-shard backend: one core engine, driven on the
// caller's goroutine, so matches are pushed to subscriptions synchronously,
// on the goroutine whose ProcessBatch call emitted them, and New starts no
// goroutine. With no options it uses the default engine configuration
// (unbounded retention); WithShards is ignored.
func New(opts ...Option) *Sharded {
	return NewSharded(append(slices.Clip(opts), WithShards(1))...)
}

// NewSharded builds a sharded backend (default: 4 shards of the default
// engine configuration) and, above one shard, starts the shard goroutines.
func NewSharded(opts ...Option) *Sharded {
	s := &Sharded{frontend: frontend{cfg: defaultConfig(), queries: make(map[string]*Query)}}
	for _, o := range opts {
		o(&s.cfg)
	}
	if s.cfg.engine.Obs.Enabled && s.cfg.engine.Obs.Clock == nil {
		// Pinned, so the public tier stamps on the engine tiers' timebase.
		s.cfg.engine.Obs.Clock = obs.SystemClock
	}
	inline := s.cfg.shards <= 1
	// Above one shard, shards deliver one at a time and nothing overlaps a
	// log write, so an emission is acknowledged as soon as its sinks have
	// returned. A single shard delivers inside the batch whose log write is
	// in flight, so ProcessBatch acknowledges behind the join.
	sink := core.MatchSinkFunc(s.fanout)
	if !inline {
		sink = func(ev core.MatchEvent) {
			s.fanout(ev)
			s.flushNotes()
		}
	}
	s.eng = shard.New(&shard.Config{Shards: s.cfg.shards, Engine: s.cfg.engine, Sink: sink})
	if !inline {
		s.eng.Start()
	}
	var rec *wal.Recovery
	if s.dur, rec = openDurable(&s.cfg); rec != nil {
		replayRecovery(s, rec)
	}
	return s
}

// Flush is a full-pipeline barrier: it returns once every edge and control
// message accepted before the call has been processed by its shard and
// every match they produced has been delivered to subscriptions. On a
// single shard every call has done so before it returns, so Flush returns
// at once.
func (s *Sharded) Flush() error {
	if err := s.lock(context.Background()); err != nil {
		return err
	}
	defer s.mu.Unlock()
	return s.eng.Flush()
}

// Shards returns the number of engine shards.
func (s *Sharded) Shards() int { return s.eng.Shards() }

// lock takes mu for a call that reaches the engine, unless ctx is done or
// the backend is closed. Close marks it closed before it takes mu, so no
// call reaches a closed shard engine.
func (s *Sharded) lock(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// RegisterQuery registers a continuous query on its home shards: every
// shard for a query with a hub vertex (a pattern vertex touching every
// pattern edge), shard 0 alone for a hub-free one. A hub-free query must be
// registered before streaming begins, since shard 0 is sent the edges of
// its types only from registration on (ErrBroadcastRequired from the shard
// package otherwise).
func (s *Sharded) RegisterQuery(ctx context.Context, q *Query) error {
	return s.RegisterQueryWith(ctx, q, RegisterOptions{})
}

// RegisterQueryWith is RegisterQuery with the query's own plan strategy.
// Each shard plans against its own partition's statistics; the merged
// match set stays canonical regardless (only a match's owner shard sends it
// on).
func (s *Sharded) RegisterQueryWith(ctx context.Context, q *Query, opts RegisterOptions) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if err := s.eng.RegisterQuery(q, coreOptions(opts)...); err != nil {
		return err
	}
	s.addQuery(q.Name(), q, opts)
	return nil
}

// UnregisterQuery removes a registration from the shards it lives on.
func (s *Sharded) UnregisterQuery(ctx context.Context, name string) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if err := s.eng.UnregisterQuery(name); err != nil {
		return err
	}
	s.dropQuery(name)
	return nil
}

// ProcessBatch routes a batch of edges in order, each to the shards that
// need it. Above one shard, ctx bounds the blocking mailbox hand-off under
// backpressure; on a single shard, ctx is checked between edges, and the
// matches they complete are pushed to subscriptions before it returns.
func (s *Sharded) ProcessBatch(ctx context.Context, edges []StreamEdge) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.mu.Unlock()
	// Write-ahead, overlapped: the log write runs concurrently with routing
	// (s.mu makes log order equal routing order), and the join makes the
	// batch durable — or durability degraded — before it can be acked
	// upstream. A single shard acknowledges its emissions behind the join
	// on every way out, a cancelled ctx's included.
	if join := s.dur.appendEdgesAsync(edges); join != nil {
		defer func() {
			join()
			if s.eng.Shards() == 1 {
				s.flushNotes()
			}
		}()
	}
	for _, se := range edges {
		if err := s.eng.ProcessContext(ctx, se); err != nil {
			return err
		}
	}
	return nil
}

// Advance broadcasts an explicit stream-time signal to every shard.
func (s *Sharded) Advance(ctx context.Context, ts Timestamp) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.mu.Unlock()
	s.dur.appendAdvance(ts)
	s.eng.Advance(ts)
	return nil
}

// Subscribe attaches sink to the query named by queryFilter ("" for all
// queries). Sinks run one at a time — on the owning shard's goroutine above
// one shard, inside the ProcessBatch call on a single shard — and must not
// call back into the engine except to close their own subscription: a sink
// that blocks stalls every shard's delivery and eventually ingestion, so
// hand work off quickly. Subscribe never waits behind ingestion and is safe
// while ProcessBatch runs; a recovered backlog is handed over under the
// lock live deliveries take, so it may interleave with them but never
// overlaps one — match identity is (query, signature), and the engine never
// re-derives a match the replay already produced.
func (s *Sharded) Subscribe(queryFilter string, sink MatchSink) (Subscription, error) {
	return s.subscribe(queryFilter, sink, s.eng.Exclusive)
}

// Metrics aggregates per-shard counters into the single-engine Metrics
// shape (matches as their owner shards delivered them, each once); it keeps
// working after Close.
func (s *Sharded) Metrics(ctx context.Context) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Metrics(), nil
}

// ObsSnapshot folds every tier's registry — each shard worker's, the
// front-end's, and the WAL's — into one snapshot: every counter
// and gauge, plus the latency histograms when the engine's EngineConfig.Obs
// is enabled. It reads the registries as they stand, taking no lock
// and waiting on nothing (no shard round trip, no log write), so it is safe
// from any goroutine and answers while ingest is blocked.
func (s *Sharded) ObsSnapshot() ObsSnapshot {
	return obs.Merge(s.eng.ObsSnapshot(), s.dur.snapshot())
}

// MetricsSnapshot reads every tier once — each shard worker refreshing its
// gauges on its own goroutine, then the WAL — and returns the aggregate and
// per-shard views with the merged reading they were built from, which always
// agree. The per-shard views are each shard engine's raw counters in shard
// order — an edge counts on each shard it was sent to, a match on each shard
// that found it, owner or not — for operators watching partition skew. The
// serving tier renders GET /v1/metrics from it.
func (s *Sharded) MetricsSnapshot() (Metrics, []Metrics, ObsSnapshot) {
	s.mu.Lock()
	m, perShard, snap := s.eng.Snapshot()
	s.mu.Unlock()
	return m, perShard, obs.Merge(snap, s.dur.snapshot())
}

// Close flushes the shard mailboxes, stops the workers and finishes every
// subscription (Done closes after the final delivery; on a single shard,
// once the call in flight, if any, has returned). Idempotent; subsequent
// mutating calls return ErrClosed.
func (s *Sharded) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	s.eng.Close() // returns after the final delivery
	s.mu.Unlock()
	s.finish()
	return nil
}
