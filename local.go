package streamworks

import (
	"context"
	"sync"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/obs"
)

// Local is the single-engine backend: one core engine behind a mutex, so
// the public concurrency contract holds even though the underlying engine is
// single-threaded. Matches are pushed to subscriptions synchronously, on the
// goroutine whose Process call emitted them.
type Local struct {
	frontend
	// mu serializes every engine call; fanout runs with it held, inside
	// ProcessEdge or Advance.
	mu  sync.Mutex
	eng *core.Engine
}

var _ Engine = (*Local)(nil)

// New builds a single-engine backend. With no options it uses the default
// engine configuration (unbounded retention).
func New(opts ...Option) *Local {
	l := &Local{}
	l.init(opts)
	l.eng = core.New(&l.cfg.engine)
	l.eng.Subscribe("", core.MatchSinkFunc(l.fanout))
	l.recoverFrom(l, func() error { return nil })
	return l
}

// RegisterQuery installs a continuous query, selective.
func (l *Local) RegisterQuery(ctx context.Context, q *Query) error {
	return l.RegisterQueryWith(ctx, q, RegisterOptions{})
}

// RegisterQueryWith installs a continuous query with its own plan strategy.
func (l *Local) RegisterQueryWith(ctx context.Context, q *Query, opts RegisterOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	reg, err := l.eng.RegisterQuery(q, opts.coreOptions()...)
	if err != nil {
		return err
	}
	l.addQuery(reg.Name(), q, opts)
	return nil
}

// UnregisterQuery removes a registered query and its partial state.
func (l *Local) UnregisterQuery(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	if err := l.eng.UnregisterQuery(name); err != nil {
		return err
	}
	l.dropQuery(name)
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
	if l.closed.Load() {
		return ErrClosed
	}
	// Write-ahead, overlapped: the log write runs concurrently with engine
	// processing, and the join makes the batch durable (or durability
	// degraded) before ProcessBatch returns — so a batch is never acked
	// upstream ahead of its frame reaching the OS. The emissions every
	// (synchronous) sink saw in the meantime are acknowledged behind the
	// join, on every way out: noted implies delivered, and a match delivered
	// under a cancelled ctx is delivered all the same.
	if join := l.dur.appendEdgesAsync(edges); join != nil {
		defer func() {
			join()
			l.flushNotes()
		}()
	}
	for _, se := range edges {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.eng.ProcessEdge(se)
	}
	return nil
}

// Advance signals the passage of stream time in the absence of edges.
func (l *Local) Advance(ctx context.Context, ts Timestamp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	l.dur.appendAdvance(ts)
	l.eng.Advance(ts)
	l.flushNotes()
	return nil
}

// Subscribe attaches sink to the query named by queryFilter ("" for all
// queries). The sink runs synchronously inside Process; it may close its
// own subscription, but must not otherwise call back into this engine.
func (l *Local) Subscribe(queryFilter string, sink MatchSink) (Subscription, error) {
	// Under mu, so a recovered backlog never interleaves with a live batch.
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.subscribe(queryFilter, sink)
}

// ObsSnapshot folds the engine's registry and the WAL's into one snapshot:
// every counter and gauge, plus the latency histograms when the engine was
// built WithObservability. Sizes are as of the engine's last prune sweep. It
// takes no lock, so it is safe from any goroutine (registry cells are
// atomic).
func (l *Local) ObsSnapshot() ObsSnapshot {
	return obs.Merge(l.eng.ObsRegistry().Snapshot(), l.dur.snapshot())
}

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
	if l.closed.Swap(true) {
		return nil
	}
	// Delivery is synchronous: once the call in flight (if any) has released
	// mu, every sink has returned.
	l.mu.Lock()
	l.flushNotes()
	l.mu.Unlock()
	l.finish()
	return nil
}
