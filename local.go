package streamworks

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/export"
)

// Local is the single-engine backend: one core engine behind a mutex, so
// the public concurrency contract holds even though the underlying engine is
// single-threaded. Matches are pushed to subscriptions synchronously, on the
// goroutine whose Process call emitted them.
type Local struct {
	mu      sync.Mutex
	eng     *core.Engine
	cfg     config // registration defaults (strategy, adaptive)
	queries map[string]*Query
	subs    []*localSub // in subscription order
	reports export.Reporter
	closed  bool

	// unswept is set when a subscription closes. Subscription.Close only
	// touches this flag and the sub's own, so it is safe from any goroutine
	// — including from inside the subscription's own sink, which runs while
	// mu is held; dropping the sub from the registry is deferred to the next
	// mu-holding call.
	unswept atomic.Bool

	// dur is the durability glue (nil without WithDataDir); autoAck is set
	// when emissions are acknowledged to the WAL by the engine itself.
	// pendingNotes accumulates (query, signature, span-start) emissions
	// observed during the current ProcessBatch/Advance call; they are
	// acknowledged to the WAL only when the call returns, i.e. strictly
	// after every (synchronous) subscriber sink has seen them — noted
	// implies delivered, which is what makes crash-time suppression safe.
	dur          *durable
	autoAck      bool
	pendingNotes []pendingNote
}

type pendingNote struct {
	query, signature string
	spanStart        int64
}

var _ Engine = (*Local)(nil)

// New builds a single-engine backend. With no options it uses the default
// engine configuration (unbounded retention, summaries on).
func New(opts ...Option) *Local {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg.finishObs()
	l := &Local{
		eng:     core.New(&cfg.engine),
		cfg:     cfg,
		queries: make(map[string]*Query),
	}
	l.eng.Subscribe("", core.MatchSinkFunc(l.fanout))
	dur, rec := openDurable(&l.cfg)
	l.dur = dur
	l.autoAck = dur != nil && dur.man != nil && !dur.manual
	if rec != nil {
		dur.replaying.Store(true)
		replayRecovery(l, dur, rec, func() error { return nil })
		dur.replaying.Store(false)
	}
	return l
}

// fanout is the engine's one sink. It runs for every match, inside the
// Process call that emitted it (so with l.mu held): resolve the event into
// the public Match form once, push it to every subscription whose filter
// admits it, then queue the auto-ack note, reusing the report's signature.
func (l *Local) fanout(ev core.MatchEvent) {
	built := false
	var rep Match
	for _, sub := range l.subs {
		if sub.closed.Load() || (sub.query != "" && sub.query != ev.Query) {
			continue
		}
		if !built {
			rep, built = l.cfg.report(&l.reports, ev, l.queries[ev.Query]), true
		}
		sub.sink.OnMatch(rep)
	}
	if l.autoAck && l.dur.live() {
		sig := rep.Signature
		if !built {
			sig = ev.CanonicalSignature()
		}
		l.pendingNotes = append(l.pendingNotes, pendingNote{
			query:     ev.Query,
			signature: sig,
			spanStart: int64(ev.Match.Span.Start),
		})
	}
}

// flushNotesLocked acknowledges the emissions collected during the current
// call to the WAL. Caller holds l.mu.
func (l *Local) flushNotesLocked() {
	if len(l.pendingNotes) == 0 {
		return
	}
	for _, n := range l.pendingNotes {
		l.dur.note(n.query, n.signature, n.spanStart)
	}
	l.pendingNotes = l.pendingNotes[:0]
}

// localSub is one push subscription on a Local engine.
type localSub struct {
	l      *Local
	query  string // "" subscribes to every query
	sink   MatchSink
	closed atomic.Bool
	done   chan struct{}
	once   sync.Once
}

func (s *localSub) Done() <-chan struct{} { return s.done }
func (s *localSub) Err() error            { return nil }

// Close cancels the subscription: delivery stops immediately (fanout checks
// the flag), Done closes, and the registry entry is reclaimed on the
// engine's next call. Idempotent and safe from inside the
// subscription's own sink.
func (s *localSub) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.l.unswept.Store(true)
	s.once.Do(func() { close(s.done) })
	return nil
}

// sweepLocked drops closed subscriptions from the registry. Caller holds
// l.mu.
func (l *Local) sweepLocked() {
	if l.unswept.Swap(false) {
		l.subs = slices.DeleteFunc(l.subs, func(sub *localSub) bool { return sub.closed.Load() })
	}
}

// RegisterQuery installs a continuous query with the engine's registration
// defaults.
func (l *Local) RegisterQuery(ctx context.Context, q *Query) error {
	return l.RegisterQueryWith(ctx, q, RegisterOptions{})
}

// RegisterQueryWith installs a continuous query, overriding the engine's
// plan-strategy and adaptive-planning defaults per RegisterOptions.
func (l *Local) RegisterQueryWith(ctx context.Context, q *Query, opts RegisterOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.sweepLocked()
	reg, err := l.eng.RegisterQuery(q, l.cfg.registrationOptions(opts)...)
	if err != nil {
		return err
	}
	l.queries[reg.Name()] = q
	l.dur.appendRegister(l.cfg.registerRecord(q, opts))
	return nil
}

// UnregisterQuery removes a registered query and its partial state.
func (l *Local) UnregisterQuery(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.sweepLocked()
	if err := l.eng.UnregisterQuery(name); err != nil {
		return err
	}
	delete(l.queries, name)
	l.dur.appendUnregister(name)
	return nil
}

// Process ingests one stream edge; matches it completes are pushed to
// subscriptions before Process returns.
func (l *Local) Process(ctx context.Context, se StreamEdge) error {
	return l.ProcessBatch(ctx, []StreamEdge{se})
}

// ProcessBatch ingests a batch of edges in order, checking ctx between
// edges.
func (l *Local) ProcessBatch(ctx context.Context, edges []StreamEdge) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.sweepLocked()
	// Write-ahead, overlapped: the log write runs concurrently with engine
	// processing, and the join below makes the batch durable (or durability
	// degraded) before ProcessBatch returns — so a batch is never acked
	// upstream, and its emission notes never flushed, ahead of its frame
	// reaching the OS.
	join := l.dur.appendEdgesAsync(edges)
	if join != nil {
		defer join()
	}
	for _, se := range edges {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.eng.ProcessEdge(se)
	}
	if join != nil {
		join()
	}
	l.flushNotesLocked()
	return nil
}

// Advance signals the passage of stream time in the absence of edges.
func (l *Local) Advance(ctx context.Context, ts Timestamp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.dur.appendAdvance(ts)
	l.eng.Advance(ts)
	l.flushNotesLocked()
	return nil
}

// Subscribe attaches sink to the query named by queryFilter ("" for all
// queries). The sink runs synchronously inside Process; it may close its
// own subscription, but must not otherwise call back into this engine.
func (l *Local) Subscribe(queryFilter string, sink MatchSink) (Subscription, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	l.sweepLocked()
	if queryFilter != "" {
		if _, known := l.queries[queryFilter]; !known {
			return nil, ErrUnknownQuery
		}
	}
	sub := &localSub{l: l, query: queryFilter, sink: sink, done: make(chan struct{})}
	l.subs = append(l.subs, sub)
	// Recovered matches that were never delivered before the crash replay
	// to the first matching subscriber, exactly once.
	for _, m := range l.dur.takeBacklog(queryFilter) {
		sink.OnMatch(m)
		if !l.dur.manual {
			l.dur.note(m.Query, m.Signature, m.SpanStart)
		}
	}
	return sub, nil
}

// Durability reports the engine's durability mode and WAL counters.
func (l *Local) Durability() DurabilityStats { return l.dur.stats() }

// RegisteredQueries returns the currently registered queries, sorted by
// name — including ones recovered from the WAL at construction.
func (l *Local) RegisteredQueries() []*Query {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Query, 0, len(l.queries))
	for _, q := range l.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// AckDelivered acknowledges, under WithManualDeliveryAck, that a match has
// reached its consumer; once acknowledged (and checkpointed) the match is
// suppressed instead of redelivered after a crash.
func (l *Local) AckDelivered(query, signature string, spanStart int64) {
	l.dur.note(query, signature, spanStart)
}

// ObsEnabled reports whether the engine was built WithObservability.
func (l *Local) ObsEnabled() bool { return l.eng.ObsEnabled() }

// ObsSnapshot copies the engine's observability registry: counters and
// per-segment latency histograms. It is empty unless the engine was built
// WithObservability, and safe from any goroutine (registry cells are
// atomic).
func (l *Local) ObsSnapshot() ObsSnapshot { return l.eng.ObsRegistry().Snapshot() }

// TraceDump returns the buffered edge-journey trace events, oldest first;
// nil unless the engine was built WithTraceSampling.
func (l *Local) TraceDump() []TraceEvent { return l.cfg.engine.Obs.Tracer.Dump() }

// Metrics snapshots engine counters; it keeps working after Close.
func (l *Local) Metrics(ctx context.Context) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eng.Metrics(), nil
}

// Close shuts the engine down: idempotent, and every subscription's Done
// closes. Subsequent mutating calls return ErrClosed.
func (l *Local) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.sweepLocked()
	subs := l.subs
	l.subs = nil
	for _, sub := range subs {
		sub.closed.Store(true)
	}
	l.mu.Unlock()
	for _, sub := range subs {
		sub.once.Do(func() { close(sub.done) })
	}
	// Every sink has returned (delivery is synchronous), so the final
	// checkpoint covers all delivered matches: a graceful restart
	// redelivers nothing.
	l.dur.close()
	return nil
}
