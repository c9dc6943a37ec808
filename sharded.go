package streamworks

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/shard"
)

// Sharded is the scale-out in-process backend: N core engines over hash
// partitions of the vertex space, with deduplicated per-query push
// subscriptions delivered from the merge goroutine. A mutex serializes the
// underlying front-end's single-driver control surface, so the public
// concurrency contract holds; Subscribe and subscription teardown bypass the
// mutex entirely and never wait behind ingestion.
type Sharded struct {
	mu  sync.Mutex // serializes engine control ops (the single-driver contract)
	eng *shard.ShardedEngine
	cfg config // registration defaults (strategy, adaptive)

	// qmu guards the query map, which the match-delivery path reads from
	// the merger goroutine — it must never wait behind mu, or a blocked
	// ingest could deadlock delivery.
	qmu     sync.RWMutex
	queries map[string]*Query

	// smu guards the public subscription registry (copy-on-write snapshot
	// in subs) and the lazy engine-side subscription feeding it. One engine
	// subscription serves every public subscriber, so each match is
	// resolved into its public Match form exactly once, however many
	// subscribers are attached.
	smu     sync.Mutex
	subs    []*shardedSub
	seq     int
	inner   *shard.Subscription
	drained bool
	// reports belongs to the merge goroutine, the only caller of fanout.
	reports export.Reporter

	// dur is the durability glue (nil without WithDataDir). Emission notes
	// fire at the end of fanout, on the merge goroutine, once every
	// subscriber sink has returned for the event.
	dur *durable

	closed atomic.Bool
}

var _ Engine = (*Sharded)(nil)

// NewSharded builds and starts a sharded backend (default: 4 shards of the
// default engine configuration).
func NewSharded(opts ...Option) *Sharded {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg.finishObs()
	eng := shard.New(&shard.Config{
		Shards:       cfg.shards,
		Engine:       cfg.engine,
		Buffer:       cfg.shardBuffer,
		AdvanceEvery: cfg.advanceEvery,
	})
	eng.Start()
	s := &Sharded{eng: eng, cfg: cfg, queries: make(map[string]*Query)}
	dur, rec := openDurable(&s.cfg)
	s.dur = dur
	if rec != nil {
		dur.replaying.Store(true)
		replayRecovery(s, dur, rec, s.Flush)
		dur.replaying.Store(false)
	}
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

// shardedSub is one public subscription, fed by the engine-side fan-out.
type shardedSub struct {
	s      *Sharded
	id     int
	query  string
	sink   MatchSink
	closed atomic.Bool
	done   chan struct{}
	once   sync.Once
}

func (sub *shardedSub) Done() <-chan struct{} { return sub.done }
func (sub *shardedSub) Err() error            { return nil }

// Close cancels the subscription. It only touches the registry lock, so it
// is safe from any goroutine — including from inside the subscription's own
// sink. A delivery already in flight may still arrive concurrently.
func (sub *shardedSub) Close() error {
	if sub.closed.Swap(true) {
		return nil
	}
	s := sub.s
	s.smu.Lock()
	for i, o := range s.subs {
		if o.id == sub.id {
			subs := make([]*shardedSub, 0, len(s.subs)-1)
			subs = append(subs, s.subs[:i]...)
			s.subs = append(subs, s.subs[i+1:]...)
			break
		}
	}
	s.smu.Unlock()
	sub.finish()
	return nil
}

func (sub *shardedSub) finish() {
	sub.once.Do(func() { close(sub.done) })
}

// fanout runs on the merge goroutine for every deduplicated match: resolve
// the event into the public Match form once, then push it to every
// subscription whose filter admits it.
func (s *Sharded) fanout(ev core.MatchEvent) {
	s.smu.Lock()
	subs := s.subs
	s.smu.Unlock()
	built := false
	var rep Match
	for _, sub := range subs {
		if sub.closed.Load() || (sub.query != "" && sub.query != ev.Query) {
			continue
		}
		if !built {
			s.qmu.RLock()
			q := s.queries[ev.Query]
			s.qmu.RUnlock()
			rep, built = s.cfg.report(&s.reports, ev, q), true
		}
		sub.sink.OnMatch(rep)
	}
	if s.dur != nil && !s.dur.manual {
		// Every sink above has returned: the match is delivered, so it is
		// safe to acknowledge it to the WAL (suppressing it on recovery).
		// The report, when one was built, already carries the canonical
		// signature — reuse it rather than recomputing the string.
		sig := rep.Signature
		if !built {
			sig = ev.CanonicalSignature()
		}
		s.dur.note(ev.Query, sig, int64(ev.Match.Span.Start))
	}
}

// finishSubs marks the registry drained (the engine subscription ended) and
// finishes every public subscription.
func (s *Sharded) finishSubs() {
	s.smu.Lock()
	s.drained = true
	subs := s.subs
	s.subs = nil
	s.smu.Unlock()
	for _, sub := range subs {
		sub.finish()
	}
}

// translate maps front-end sentinels onto the public ones.
func translate(err error) error {
	if errors.Is(err, shard.ErrClosed) {
		return ErrClosed
	}
	return err
}

// RegisterQuery replicates a continuous query onto every shard. Queries
// without a hub vertex must be registered before streaming begins (the
// front-end's broadcast-routing requirement).
func (s *Sharded) RegisterQuery(ctx context.Context, q *Query) error {
	return s.RegisterQueryWith(ctx, q, RegisterOptions{})
}

// RegisterQueryWith replicates a continuous query onto every shard,
// overriding the engine's plan-strategy and adaptive-planning defaults per
// RegisterOptions. With adaptive planning on, each shard re-plans against
// its own partition's statistics; the merged match set stays canonical
// regardless (dedup spans swap boundaries and shards alike).
func (s *Sharded) RegisterQueryWith(ctx context.Context, q *Query, opts RegisterOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.eng.RegisterQuery(q, s.cfg.registrationOptions(opts)...); err != nil {
		return translate(err)
	}
	s.qmu.Lock()
	s.queries[q.Name()] = q
	s.qmu.Unlock()
	s.dur.appendRegister(s.cfg.registerRecord(q, opts))
	return nil
}

// UnregisterQuery removes a registration from every shard.
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
	s.qmu.Lock()
	delete(s.queries, name)
	s.qmu.Unlock()
	s.dur.appendUnregister(name)
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
	join := s.dur.appendEdgesAsync(edges)
	if join != nil {
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
// queries). Sinks run on the merge goroutine: a sink that blocks stalls
// match delivery and eventually ingestion, so hand work off quickly.
// Subscribe never waits behind ingestion and is safe while Process runs.
func (s *Sharded) Subscribe(queryFilter string, sink MatchSink) (Subscription, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if queryFilter != "" {
		s.qmu.RLock()
		_, known := s.queries[queryFilter]
		s.qmu.RUnlock()
		if !known {
			return nil, ErrUnknownQuery
		}
	}
	s.smu.Lock()
	s.seq++
	sub := &shardedSub{s: s, id: s.seq, query: queryFilter, sink: sink, done: make(chan struct{})}
	if s.drained {
		s.smu.Unlock()
		sub.finish()
		return sub, nil
	}
	subs := make([]*shardedSub, 0, len(s.subs)+1)
	subs = append(subs, s.subs...)
	s.subs = append(subs, sub)
	if s.inner == nil {
		// First subscriber: attach the one engine-side subscription that
		// feeds the whole registry, and watch its Done to finish every
		// public subscription when the engine drains.
		s.inner = s.eng.Subscribe("", core.MatchSinkFunc(s.fanout))
		go func(inner *shard.Subscription) {
			<-inner.Done()
			s.finishSubs()
		}(s.inner)
	}
	s.smu.Unlock()
	// Recovered matches that were never delivered before the crash replay to
	// the first matching subscriber. Delivered outside smu: the sink may
	// close its own subscription, and Close takes smu. A concurrent live
	// fanout may interleave with the backlog, which is fine — match identity
	// is (query, signature), and the engine never re-derives a match the
	// replay already produced.
	for _, m := range s.dur.takeBacklog(queryFilter) {
		sink.OnMatch(m)
		if !s.dur.manual {
			s.dur.note(m.Query, m.Signature, m.SpanStart)
		}
	}
	return sub, nil
}

// Durability reports the engine's durability mode and WAL counters.
func (s *Sharded) Durability() DurabilityStats { return s.dur.stats() }

// RegisteredQueries returns the currently registered queries, sorted by
// name — including ones recovered from the WAL at construction, which is
// how the serving tier re-seeds its HTTP query listing after a durable
// restart.
func (s *Sharded) RegisteredQueries() []*Query {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	out := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// AckDelivered acknowledges, under WithManualDeliveryAck, that a match has
// reached its consumer; once acknowledged (and checkpointed) the match is
// suppressed instead of redelivered after a crash.
func (s *Sharded) AckDelivered(query, signature string, spanStart int64) {
	s.dur.note(query, signature, spanStart)
}

// Metrics aggregates per-shard counters into the single-engine Metrics
// shape (matches post-deduplication); it keeps working after Close.
func (s *Sharded) Metrics(ctx context.Context) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Metrics(), nil
}

// ObsEnabled reports whether the engine was built WithObservability.
func (s *Sharded) ObsEnabled() bool { return s.eng.ObsEnabled() }

// ObsSnapshot folds every shard worker's observability registry and the
// front-end's own into one snapshot: counters and per-segment latency
// histograms. It is empty unless the engine was built WithObservability,
// and — unlike the control surface — safe from any goroutine.
func (s *Sharded) ObsSnapshot() ObsSnapshot { return s.eng.ObsSnapshot() }

// TraceDump returns the buffered edge-journey trace events, oldest first;
// nil unless the engine was built WithTraceSampling. All shards share one
// ring, so a sampled edge's mailbox, process and match events interleave
// here in recording order.
func (s *Sharded) TraceDump() []TraceEvent { return s.cfg.engine.Obs.Tracer.Dump() }

// PerShardMetrics snapshots every shard engine's raw counters in shard
// order (replicated edges included, match counts pre-deduplication), for
// operators watching partition skew.
func (s *Sharded) PerShardMetrics() []Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.PerShardMetrics()
}

// Close flushes the shard mailboxes, stops the workers and finishes every
// subscription (Done closes after the final delivery). Idempotent;
// subsequent mutating calls return ErrClosed.
func (s *Sharded) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	s.eng.Close()
	s.mu.Unlock()
	// With no subscriber ever attached there is no inner subscription to
	// propagate the drain; finish directly (idempotent otherwise).
	s.finishSubs()
	// eng.Close drained the merger, so every fanout — and its emission note —
	// has completed: the final checkpoint below covers all delivered matches,
	// and a graceful restart redelivers nothing.
	s.dur.close()
	return nil
}
