package streamworks

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/wal"
)

// Sharded is the in-process backend: one core engine, driven on the
// calling goroutine, so its sinks run inside ProcessBatch and the call
// returning is the delivery barrier. Subscribe and subscription teardown
// never wait behind ingestion.
type Sharded struct {
	cfg config
	dur *durable // nil without WithDataDir
	// closed is set when Close begins; Subscribe reads it under rmu, so a
	// subscription either makes it into the registry Close empties or is
	// refused.
	closed atomic.Bool

	// mu serializes the engine's single-driver control surface, so the
	// public concurrency contract holds. Delivery runs inside the call
	// holding it.
	mu  sync.Mutex
	eng *core.Engine

	// delivering is taken by every delivery: the engine's, inside the call
	// holding mu, and a recovered backlog's, which Subscribe makes on its
	// caller's goroutine. So a backlog never overlaps a live delivery.
	delivering sync.Mutex

	// reg holds the registrations gauge. It stays out of the engine's
	// registry, whose snapshot every Metrics call reads and whose view counts
	// registrations from its DAG. dispatch, in the engine's registry when its
	// observability is enabled, times each match from emission to delivery.
	reg           *obs.Registry
	registrations *obs.Gauge
	dispatch      *obs.Histogram

	// rmu guards the query map and the registry. It is a leaf lock, never
	// held across a sink or engine call, so Subscribe and subscription
	// teardown never wait behind ingestion and a sink may close its own
	// subscription. subs is copy-on-write: deliver iterates a snapshot.
	rmu     sync.Mutex
	queries map[string]*Query
	subs    []*subscription // in subscription order

	// reports, at and matched belong to the delivering goroutine, the
	// caller holding mu. With durability, at is the log position of the
	// edge being applied, which deliver stamps on its matches, and matched
	// the position of the last edge that completed one.
	reports     export.Reporter
	at, matched uint64
}

// Local is the name New returned when it built a backend of its own; it
// is kept only because benchmark/ names it.
type Local = Sharded

var _ Engine = (*Sharded)(nil)

// New builds the in-process backend on the default engine configuration
// (unbounded retention) unless options say otherwise. Its engine is driven
// on the caller's goroutine, so matches are pushed to subscriptions
// synchronously, on the goroutine whose ProcessBatch call emitted them, and
// New starts no goroutine.
func New(opts ...Option) *Sharded {
	s := &Sharded{queries: make(map[string]*Query), reg: obs.NewRegistry()}
	for _, o := range opts {
		o(&s.cfg)
	}
	if s.cfg.engine.Obs.Enabled && s.cfg.engine.Obs.Clock == nil {
		// Pinned, so the public tier stamps on the engine tiers' timebase.
		s.cfg.engine.Obs.Clock = obs.SystemClock
	}
	// The engine keeps its counts in a registry of its own, whichever the
	// configuration names: a serving tier keeps its own series in that one.
	engCfg := s.cfg.engine
	engCfg.Obs.Registry = nil
	s.eng = core.New(&engCfg)
	s.registrations = s.reg.Gauge("registrations", "", "")
	if engCfg.Obs.Enabled {
		s.dispatch = s.eng.ObsRegistry().Segment(obs.SegDispatch)
	}
	s.eng.Subscribe("", core.MatchSinkFunc(s.deliver))
	var rec *wal.Recovery
	if s.dur, rec = openDurable(&s.cfg); rec != nil {
		replayRecovery(s, rec)
	}
	return s
}

// Flush is the delivery barrier: it returns once every match of the calls
// made before it has been delivered to subscriptions. Every call has done
// so before it returns, so Flush returns at once, or ErrClosed after Close.
func (s *Sharded) Flush() error {
	if err := s.lock(context.Background()); err != nil {
		return err
	}
	s.mu.Unlock()
	return nil
}

// lock takes mu for a call that reaches the engine, unless ctx is done or
// the backend is closed. Close marks it closed before it takes mu, so no
// call reaches a closed engine.
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

// RegisterQuery registers a continuous query, before streaming or
// mid-stream.
func (s *Sharded) RegisterQuery(ctx context.Context, q *Query) error {
	return s.RegisterQueryWith(ctx, q, RegisterOptions{})
}

// RegisterQueryWith is RegisterQuery with the query's own plan strategy.
func (s *Sharded) RegisterQueryWith(ctx context.Context, q *Query, opts RegisterOptions) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if _, err := s.eng.RegisterQuery(q, coreOptions(opts)...); err != nil {
		return err
	}
	s.rmu.Lock()
	s.queries[q.Name()] = q
	s.registrations.Set(int64(len(s.queries)))
	s.rmu.Unlock()
	s.dur.appendRegister(registerRecord(q, opts))
	return nil
}

// UnregisterQuery removes a registration.
func (s *Sharded) UnregisterQuery(ctx context.Context, name string) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if err := s.eng.UnregisterQuery(name); err != nil {
		return err
	}
	s.rmu.Lock()
	delete(s.queries, name)
	s.registrations.Set(int64(len(s.queries)))
	s.rmu.Unlock()
	s.dur.appendUnregister(name)
	return nil
}

// ProcessBatch hands a batch of edges in order to the engine. An edge behind
// the window's watermark is counted and dropped first (core.Engine.Admit),
// so it is neither logged nor processed. ctx is checked between edges, and
// the matches they complete are pushed to subscriptions before it returns.
func (s *Sharded) ProcessBatch(ctx context.Context, edges []StreamEdge) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.mu.Unlock()
	edges = s.eng.Admit(edges)
	// Write-ahead, overlapped: the log write runs concurrently with
	// processing (s.mu makes log order equal processing order), and the join
	// makes the batch durable — or durability degraded — before it can be
	// acked upstream. The deliveries made meanwhile are committed behind
	// the join, on every way out, a cancelled ctx's included.
	first, join := s.dur.appendEdgesAsync(edges)
	if join != nil {
		defer func() {
			join()
			s.dur.commit(s.matched)
		}()
	}
	return s.process(ctx, edges, first)
}

// process applies edges in order, edges[i] at log position first+i (no
// position when first is 0), until ctx is done: under mu, or by recovery
// before New returns.
func (s *Sharded) process(ctx context.Context, edges []StreamEdge, first uint64) error {
	for i := range edges {
		if err := ctx.Err(); err != nil {
			return err
		}
		if first != 0 {
			s.at = first + uint64(i)
		}
		// Complete matches reach deliver through the engine's sink; the
		// scratch-backed return slice is deliberately unused.
		s.eng.ProcessEdge(edges[i])
	}
	return nil
}

// Advance sends an explicit stream-time signal to the engine.
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
// queries). Sinks run one at a time, inside the ProcessBatch call, and must not
// call back into the engine except to close their own subscription: a sink that
// blocks stalls ingestion, so hand work off quickly. Subscribe never waits
// behind ingestion and is safe while ProcessBatch runs. It hands the new sink
// the recovered matches never delivered before the crash, each to the first
// matching subscriber, exactly once, in their queries' log order: under the
// lock every live delivery takes, which also attaches the sink, so the
// backlog reaches it before any live match and never overlaps one — and the
// engine never re-derives a match the replay already produced.
func (s *Sharded) Subscribe(queryFilter string, sink MatchSink) (Subscription, error) {
	sub := &subscription{s: s, query: queryFilter, sink: sink, done: make(chan struct{})}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.rmu.Lock()
	_, known := s.queries[queryFilter]
	s.rmu.Unlock()
	if !known && queryFilter != "" {
		return nil, ErrUnknownQuery
	}
	var err error
	if backlog := s.dur.takeBacklog(queryFilter); len(backlog) == 0 {
		err = s.attach(sub)
	} else {
		func() {
			s.delivering.Lock()
			defer s.delivering.Unlock()
			if err = s.attach(sub); err == nil {
				for _, m := range backlog {
					sink.OnMatch(m)
				}
			}
		}()
		// Refused by a racing Close, the backlog stays held: it is
		// recovered again on the next start.
		if err == nil {
			s.dur.hold(backlog, false)
		}
	}
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// attach adds sub to the registry unless the backend is closed. Close
// reads closed under rmu too, so sub is either in the registry Close
// empties or refused.
func (s *Sharded) attach(sub *subscription) error {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.subs = append(s.subs[:len(s.subs):len(s.subs)], sub) // copy on write
	return nil
}

// Metrics snapshots the engine's counters; it keeps working after Close.
func (s *Sharded) Metrics(ctx context.Context) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Metrics(), nil
}

// ObsSnapshot folds every tier's registry — the engine's and the WAL's —
// into one snapshot: every counter and gauge, plus the latency histograms
// when the engine's EngineConfig.Obs is enabled. It reads the registries as
// they stand, taking no lock and waiting on nothing (no gauge refresh, no
// log write), so it is safe from any goroutine and answers while ingest is
// blocked.
func (s *Sharded) ObsSnapshot() ObsSnapshot {
	snap := s.eng.ObsRegistry().Snapshot()
	return obs.Merge(s.reg.Snapshot(), snap, delivered(snap), s.dur.snapshot())
}

// MetricsSnapshot reads every tier once — the engine refreshing its gauges
// first, then the WAL — and returns the engine's view with the merged
// reading it was built from, which always agree. The serving tier renders
// GET /v1/metrics from it.
func (s *Sharded) MetricsSnapshot() (Metrics, ObsSnapshot) {
	s.mu.Lock()
	m, snap := s.eng.Snapshot()
	s.mu.Unlock()
	return m, obs.Merge(s.reg.Snapshot(), snap, delivered(snap), s.dur.snapshot())
}

// delivered is the delivered-match series: every match the engine finds is
// delivered, so they are its matches_detected and query_matches_detected
// under the names the delivered counts go by.
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

// Close stops the engine and finishes every subscription (Done closes after
// the final delivery, once the call in flight, if any, has returned). Then
// the WAL logs the cursors last acknowledged: they cover every delivered
// match, so a graceful restart redelivers nothing. Idempotent; subsequent
// mutating calls return ErrClosed.
func (s *Sharded) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// The call in flight, if any, returns first; the engine delivers nothing
	// after it.
	s.mu.Lock()
	s.eng.Subscribe("", nil)
	s.mu.Unlock()
	s.rmu.Lock()
	subs := s.subs
	s.subs = nil
	s.rmu.Unlock()
	for _, sub := range subs {
		if !sub.closed.Swap(true) {
			close(sub.done)
		}
	}
	s.dur.close()
	return nil
}

// subscription is one push subscription on an in-process backend.
type subscription struct {
	s      *Sharded
	query  string // "" subscribes to every query
	sink   MatchSink
	closed atomic.Bool // whoever sets it closes done
	done   chan struct{}
}

func (s *subscription) Done() <-chan struct{} { return s.done }
func (s *subscription) Err() error            { return nil }

// Close cancels the subscription: idempotent, and safe from any goroutine,
// the subscription's own sink included. A delivery already in flight on
// another goroutine may still arrive.
func (s *subscription) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	e := s.s
	e.rmu.Lock()
	if i := slices.Index(e.subs, s); i >= 0 {
		e.subs = slices.Delete(slices.Clone(e.subs), i, i+1)
	}
	e.rmu.Unlock()
	close(s.done)
	return nil
}

// deliver is the one way out of an in-process backend, the engine's sink,
// called for every (deduplicated) match. Under the delivery lock it
// resolves the event into the public Match form once, stamped with its
// completing edge's log position, and pushes it to every subscription whose
// filter admits it. Every sink has returned, so the match is delivered: the
// batch's commit covers it.
func (s *Sharded) deliver(ev core.MatchEvent) {
	s.delivering.Lock()
	defer s.delivering.Unlock()
	if s.dispatch != nil && ev.EmittedWallNS != 0 {
		// Dispatch latency: core emission → delivery, including the wait for
		// the lock.
		s.dispatch.Observe(s.cfg.engine.Obs.Clock.Now() - ev.EmittedWallNS)
	}
	s.rmu.Lock()
	subs, q := s.subs, s.queries[ev.Query]
	s.rmu.Unlock()
	built := false
	var rep Match
	for _, sub := range subs {
		if (sub.query == "" || sub.query == ev.Query) && !sub.closed.Load() {
			if !built {
				rep, built = s.cfg.report(&s.reports, ev, q), true
				rep.Seq = s.at
			}
			sub.sink.OnMatch(rep)
		}
	}
	s.matched = s.at
}

// RegisteredQueries returns the currently registered queries, sorted by
// name — including ones recovered from the WAL at construction. The serving
// tier keeps no copy: its HTTP query listing reads this.
func (s *Sharded) RegisteredQueries() []*Query {
	s.rmu.Lock()
	out := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		out = append(out, q)
	}
	s.rmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Durability reports the engine's durability mode and WAL counters.
func (s *Sharded) Durability() DurabilityStats { return s.dur.stats() }

// AckDelivered acknowledges, under WithManualDeliveryAck, that m has
// reached its consumer. Its query's delivery cursor moves past m and past
// every match completed before m's completing edge, so ack each
// subscriber's matches in the order they were delivered. Once logged (by
// the next ProcessBatch, or Close) the matches the cursor covers are
// suppressed instead of redelivered after a crash.
//
// The furthest ack leads. When several subscribers flush a query's
// matches at different speeds, a match one of them has not flushed yet is
// not redelivered once another has acked it or a later match; a subscriber
// that attaches late or is evicted holds no cursor back; and a match sent
// to no subscriber counts as delivered once a later match of its query is
// acked. A set of acked matches, which the cursor replaced, suppressed the
// acked matches only, and grew with them.
func (s *Sharded) AckDelivered(m Match) { s.dur.ack(m) }
