package streamworks

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/export"
)

// frontend is the in-process backend's public tier: the configuration, the
// registered queries, the one subscription registry every match leaves
// through, and the durability glue. Sharded embeds it and adds how edges
// reach the shard engines, whose delivery calls fanout.
type frontend struct {
	cfg config
	dur *durable // nil without WithDataDir
	// closed is set when the backend's Close begins; finish runs when it
	// ends. subscribe reads it under rmu, so a subscription either makes it
	// into the registry finish empties or is refused.
	closed atomic.Bool

	// rmu guards the query map and the registry. It is a leaf lock, never
	// held across a sink or engine call, so Subscribe and subscription
	// teardown never wait behind ingestion and a sink may close its own
	// subscription. subs is copy-on-write: fanout iterates a snapshot.
	rmu     sync.Mutex
	queries map[string]*Query
	subs    []*subscription // in subscription order

	// reports and pending belong to the delivering goroutine, which holds
	// the shards' delivery lock (and, on a single shard, is the caller
	// holding Sharded.mu). pending holds the emissions fanout has delivered
	// but not yet acknowledged to the WAL.
	reports export.Reporter
	pending []pendingNote
}

type pendingNote struct {
	query, signature string
	spanStart        int64
}

// subscription is one push subscription on an in-process backend.
type subscription struct {
	f      *frontend
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
	f := s.f
	f.rmu.Lock()
	if i := slices.Index(f.subs, s); i >= 0 {
		f.subs = slices.Delete(slices.Clone(f.subs), i, i+1)
	}
	f.rmu.Unlock()
	close(s.done)
	return nil
}

// subscribe attaches sink to the query named by queryFilter ("" for all),
// then hands it the recovered matches never delivered before the crash:
// each goes to the first matching subscriber, exactly once. They are
// delivered inside exclusive, which runs its argument under the lock live
// deliveries take, so the sink is never entered twice at once, and outside
// rmu, since the sink may close its own subscription.
func (f *frontend) subscribe(queryFilter string, sink MatchSink, exclusive func(func())) (Subscription, error) {
	sub := &subscription{f: f, query: queryFilter, sink: sink, done: make(chan struct{})}
	f.rmu.Lock()
	if f.closed.Load() {
		f.rmu.Unlock()
		return nil, ErrClosed
	}
	if _, known := f.queries[queryFilter]; !known && queryFilter != "" {
		f.rmu.Unlock()
		return nil, ErrUnknownQuery
	}
	f.subs = append(f.subs[:len(f.subs):len(f.subs)], sub) // copy on write
	f.rmu.Unlock()
	if backlog := f.dur.takeBacklog(queryFilter); len(backlog) > 0 {
		exclusive(func() {
			for _, m := range backlog {
				sink.OnMatch(m)
				if !f.dur.manual {
					f.dur.note(m.Query, m.Signature, m.SpanStart)
				}
			}
		})
	}
	return sub, nil
}

// fanout is the one way out of an in-process backend. The engine tier's
// sink calls it for every (deduplicated) match: resolve the event into the
// public Match form once, push it to every subscription whose filter admits
// it, then queue its acknowledgment — every sink has returned, so the match
// is delivered — reusing the report's signature when one was built.
func (f *frontend) fanout(ev core.MatchEvent) {
	f.rmu.Lock()
	subs, q := f.subs, f.queries[ev.Query]
	f.rmu.Unlock()
	built := false
	var rep Match
	for _, sub := range subs {
		if (sub.query == "" || sub.query == ev.Query) && !sub.closed.Load() {
			if !built {
				rep, built = f.cfg.report(&f.reports, ev, q), true
			}
			sub.sink.OnMatch(rep)
		}
	}
	if f.dur.live() && !f.dur.manual {
		sig := rep.Signature
		if !built {
			sig = ev.CanonicalSignature()
		}
		f.pending = append(f.pending, pendingNote{ev.Query, sig, int64(ev.Match.Span.Start)})
	}
}

// flushNotes acknowledges the emissions fanout queued to the WAL, which may
// then suppress them on recovery. The delivering goroutine calls it once
// nothing orders the acknowledgment behind a log write still in flight.
func (f *frontend) flushNotes() {
	for _, n := range f.pending {
		f.dur.note(n.query, n.signature, n.spanStart)
	}
	clear(f.pending) // a stale signature would pin its slab chunk
	f.pending = f.pending[:0]
}

// finish ends every subscription. The backend's Close calls it once the
// final delivery has returned, then the WAL takes its last checkpoint: it
// covers every delivered match, so a graceful restart redelivers nothing.
func (f *frontend) finish() {
	f.rmu.Lock()
	subs := f.subs
	f.subs = nil
	f.rmu.Unlock()
	for _, sub := range subs {
		if !sub.closed.Swap(true) {
			close(sub.done)
		}
	}
	f.dur.close()
}

// addQuery records a registration the engine accepted, in the query map and
// the log.
func (f *frontend) addQuery(name string, q *Query, opts RegisterOptions) {
	f.rmu.Lock()
	f.queries[name] = q
	f.rmu.Unlock()
	f.dur.appendRegister(registerRecord(q, opts))
}

// dropQuery is addQuery's inverse, for an unregistration.
func (f *frontend) dropQuery(name string) {
	f.rmu.Lock()
	delete(f.queries, name)
	f.rmu.Unlock()
	f.dur.appendUnregister(name)
}

// RegisteredQueries returns the currently registered queries, sorted by
// name — including ones recovered from the WAL at construction. The serving
// tier keeps no copy: its HTTP query listing reads this.
func (f *frontend) RegisteredQueries() []*Query {
	f.rmu.Lock()
	out := make([]*Query, 0, len(f.queries))
	for _, q := range f.queries {
		out = append(out, q)
	}
	f.rmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Durability reports the engine's durability mode and WAL counters.
func (f *frontend) Durability() DurabilityStats { return f.dur.stats() }

// AckDelivered acknowledges, under WithManualDeliveryAck, that a match has
// reached its consumer; once acknowledged (and checkpointed) the match is
// suppressed instead of redelivered after a crash.
func (f *frontend) AckDelivered(query, signature string, spanStart int64) {
	f.dur.note(query, signature, spanStart)
}
