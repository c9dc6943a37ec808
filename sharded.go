package streamworks

import (
	"context"
	"errors"
	"sync"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/shard"
)

// Sharded is the scale-out in-process backend: N core engines over hash
// partitions of the vertex space, each match delivered to subscriptions by
// the one shard that owns it, on that shard's goroutine. Subscribe and
// subscription teardown never wait behind ingestion.
type Sharded struct {
	frontend
	// mu serializes the sharded engine's single-driver control surface, so
	// the public concurrency contract holds. Delivery never takes it, or a
	// blocked ingest could deadlock it.
	mu  sync.Mutex
	eng *shard.ShardedEngine
}

var _ Engine = (*Sharded)(nil)

// NewSharded builds and starts a sharded backend (default: 4 shards of the
// default engine configuration).
func NewSharded(opts ...Option) *Sharded {
	s := &Sharded{}
	s.init(opts)
	s.eng = shard.New(&shard.Config{
		Shards: s.cfg.shards,
		Engine: s.cfg.engine,
		// Shards deliver one at a time and nothing overlaps a log write, so
		// an emission is acknowledged as soon as its sinks have returned.
		Sink: core.MatchSinkFunc(func(ev core.MatchEvent) {
			s.fanout(ev)
			s.flushNotes()
		}),
	})
	s.eng.Start()
	s.recoverFrom(s, s.Flush)
	return s
}

// Flush is a full-pipeline barrier: it returns once every edge and control
// message accepted before the call has been processed by its shard and
// every match they produced has been delivered to subscriptions. Sharded
// only — delivery on the other backends is already synchronous.
func (s *Sharded) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return translate(s.eng.Flush())
}

// Shards returns the number of engine shards.
func (s *Sharded) Shards() int { return s.eng.Shards() }

// translate maps the sharded engine's sentinels onto the public ones.
func translate(err error) error {
	if errors.Is(err, shard.ErrClosed) {
		return ErrClosed
	}
	return err
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
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.RegisterQuery(q, opts.coreOptions()...); err != nil {
		return translate(err)
	}
	s.addQuery(q.Name(), q, opts)
	return nil
}

// UnregisterQuery removes a registration from the shards it lives on.
func (s *Sharded) UnregisterQuery(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.UnregisterQuery(name); err != nil {
		return translate(err)
	}
	s.dropQuery(name)
	return nil
}

// Process routes one stream edge to the shards that need it. ctx bounds the
// blocking mailbox hand-off under backpressure.
func (s *Sharded) Process(ctx context.Context, se StreamEdge) error {
	return s.ProcessBatch(ctx, []StreamEdge{se})
}

// ProcessBatch routes a batch of edges in order.
func (s *Sharded) ProcessBatch(ctx context.Context, edges []StreamEdge) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Write-ahead, overlapped: the log write runs concurrently with mailbox
	// routing (s.mu makes log order equal routing order), and the join makes
	// the batch durable — or durability degraded — before ProcessBatch
	// returns and the batch can be acked upstream.
	if join := s.dur.appendEdgesAsync(edges); join != nil {
		defer join()
	}
	for _, se := range edges {
		if err := s.eng.ProcessContext(ctx, se); err != nil {
			return translate(err)
		}
	}
	return nil
}

// Advance broadcasts an explicit stream-time signal to every shard.
func (s *Sharded) Advance(ctx context.Context, ts Timestamp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dur.appendAdvance(ts)
	s.eng.Advance(ts)
	return nil
}

// Subscribe attaches sink to the query named by queryFilter ("" for all
// queries). Sinks run on the owning shard's goroutine, one at a time, and
// must not call back into the engine except to close their own
// subscription: a sink that blocks stalls every shard's delivery and
// eventually ingestion, so hand work off quickly.
// Subscribe never waits behind ingestion and is safe while Process runs; a
// recovered backlog may therefore interleave with live deliveries, which is
// fine — match identity is (query, signature), and the engine never
// re-derives a match the replay already produced.
func (s *Sharded) Subscribe(queryFilter string, sink MatchSink) (Subscription, error) {
	return s.subscribe(queryFilter, sink)
}

// Metrics aggregates per-shard counters into the single-engine Metrics
// shape (matches as their owner shards delivered them, each once); it keeps
// working after Close.
func (s *Sharded) Metrics(ctx context.Context) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	m, _, _ := s.MetricsSnapshot()
	return m, nil
}

// ObsSnapshot folds every tier's registry — each shard worker's, the
// front-end's, and the WAL's — into one snapshot: every counter
// and gauge, plus the latency histograms when the engine was built
// WithObservability. It reads the registries as they stand, taking no lock
// and waiting on nothing (no shard round trip, no log write), so it is safe
// from any goroutine and answers while ingest is blocked.
func (s *Sharded) ObsSnapshot() ObsSnapshot {
	return obs.Merge(s.eng.ObsSnapshot(), s.dur.snapshot())
}

// MetricsSnapshot reads every tier once — each shard worker refreshing its
// gauges on its own goroutine, then the WAL — and returns the aggregate and
// per-shard views with the merged reading they were built from, which always
// agree. The serving tier renders GET /v1/metrics from it.
func (s *Sharded) MetricsSnapshot() (Metrics, []Metrics, ObsSnapshot) {
	s.mu.Lock()
	m, perShard, snap := s.eng.Snapshot()
	s.mu.Unlock()
	return m, perShard, obs.Merge(snap, s.dur.snapshot())
}

// PerShardMetrics snapshots every shard engine's raw counters in shard
// order (an edge counts on each shard it was sent to, and a match on each
// shard that found it, owner or not), for operators watching partition
// skew.
func (s *Sharded) PerShardMetrics() []Metrics {
	_, perShard, _ := s.MetricsSnapshot()
	return perShard
}

// Close flushes the shard mailboxes, stops the workers and finishes every
// subscription (Done closes after the final delivery). Idempotent;
// subsequent mutating calls return ErrClosed.
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
