package shard

import (
	"context"
	"sync"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

// msgKind discriminates mailbox messages.
type msgKind uint8

const (
	msgEdge msgKind = iota
	msgAdvance
	msgCtrl
)

// message is one mailbox entry: an edge, a watermark advance, or a control
// call.
type message struct {
	kind msgKind
	edge graph.StreamEdge
	ts   graph.Timestamp
	// ctrl runs on the worker goroutine, serialized with edge processing.
	ctrl func()
	// enqNS is the wall-clock enqueue time, stamped by the router only when
	// observability is enabled (zero otherwise); the worker subtracts it on
	// dequeue to measure mailbox wait.
	enqNS int64
}

// worker owns one shard: a core.Engine and, above one shard, the goroutine
// that drives it and the mailbox feeding it, both made at construction. A
// worker has a goroutine exactly when it has a mailbox; a lone shard has
// neither, and the front-end calls its engine on the caller's goroutine.
type worker struct {
	id, shards int
	eng        *core.Engine
	// queries holds every query registered on this shard, read by the
	// engine sink to deliver only the matches this shard owns. Written and
	// read on the worker goroutine. A lone shard owns every match and keeps
	// none.
	queries map[string]homed
	// emitted counts the matches this shard delivered, in its engine's
	// registry; nil on a lone shard, whose engine's own count is the
	// delivered count.
	emitted *obs.Counter
	// mu is the lock every shard delivers under; sink is where matches go.
	mu   *sync.Mutex
	sink core.MatchSink

	in   chan message // nil on a lone shard
	done sync.WaitGroup

	// Observability handles, resolved at construction when enabled (all nil
	// otherwise): the shared clock and the worker-registry mailbox-wait and
	// dispatch histograms. They live in the same per-worker registry as the
	// worker engine's segments, so one fold covers all.
	obsClock    obs.Clock
	obsMailbox  *obs.Histogram
	obsDispatch *obs.Histogram
}

// newWorker builds shard id of shards around eng. Matches are delivered by
// an engine-level sink at the moment of emission, on whichever goroutine
// drives the engine: a match this shard owns is handed to sink under mu,
// the lock every shard delivers under, so sink is never entered twice at
// once. A lone shard owns every match, so it skips the owner filter and the
// counts of what it delivered.
func newWorker(id, shards int, eng *core.Engine, mu *sync.Mutex, sink core.MatchSink) *worker {
	w := &worker{id: id, shards: shards, eng: eng, mu: mu, sink: sink}
	deliver := w.deliver
	if shards > 1 {
		w.queries = make(map[string]homed)
		w.emitted = eng.ObsRegistry().Counter("matches_emitted", "", "")
		deliver = w.deliverOwned
	}
	eng.Subscribe("", core.MatchSinkFunc(deliver))
	return w
}

// homed is one query registered on a shard: its hub (noHub for a hub-free
// query) and its count of the matches this shard delivered, resolved in the
// shard engine's registry, so UnregisterQuery forgets it with the query's
// other series.
type homed struct {
	hub     query.VertexID
	emitted *obs.Counter
}

// deliverOwned counts and delivers a match this shard owns, and drops the
// rest.
func (w *worker) deliverOwned(ev core.MatchEvent) {
	q := w.queries[ev.Query]
	if !w.owns(q.hub, ev) {
		return
	}
	q.emitted.Inc()
	w.emitted.Inc()
	w.deliver(ev)
}

// deliver hands ev to the sink under the delivery lock.
func (w *worker) deliver(ev core.MatchEvent) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.obsDispatch != nil && ev.EmittedWallNS != 0 {
		// Dispatch latency: core emission → delivery, including the wait
		// for the other shards' deliveries.
		w.obsDispatch.Observe(w.obsClock.Now() - ev.EmittedWallNS)
	}
	if w.sink != nil {
		w.sink.OnMatch(ev)
	}
}

// start gives the worker its mailbox and the goroutine draining it.
func (w *worker) start() {
	w.in = make(chan message, mailboxDepth)
	w.done.Add(1)
	go w.loop()
}

// owns reports whether this shard is the one that delivers ev, a match of a
// query with the given hub: the owner of the data vertex bound to the hub.
// Other shards may find the same match — a shard is sent every edge of the
// vertices it owns, so it also holds edges at their far ends — but only the
// owner is certain to. A hub-free query lives on one shard, which delivers
// all it finds.
func (w *worker) owns(hub query.VertexID, ev core.MatchEvent) bool {
	if hub == noHub {
		return true
	}
	v, _ := ev.Match.Vertex(hub)
	return ownerOf(v, w.shards) == w.id
}

func (w *worker) loop() {
	defer w.done.Done()
	for msg := range w.in {
		switch msg.kind {
		case msgEdge:
			if msg.enqNS != 0 && w.obsMailbox != nil {
				w.obsMailbox.Observe(w.obsClock.Now() - msg.enqNS)
			}
			w.eng.ProcessEdge(msg.edge) // see edge
		case msgAdvance:
			w.eng.Advance(msg.ts)
		case msgCtrl:
			msg.ctrl()
		}
	}
}

// do runs fn against the shard's engine: on the worker goroutine, behind the
// messages already in its mailbox — returning once fn has — and directly on
// a lone shard. Every match the earlier messages produced has been
// delivered before fn runs.
func (w *worker) do(fn func()) {
	if w.in == nil {
		fn()
		return
	}
	done := make(chan struct{})
	w.in <- message{kind: msgCtrl, ctrl: func() { fn(); close(done) }}
	<-done
}

// edge hands an edge to the shard: through its mailbox (blocking when the
// mailbox is full — backpressure to the stream driver; a context with
// cancellation bounds the wait, context.Background() takes the
// uninstrumented fast path), and on a lone shard straight to its engine,
// unless ctx is done.
func (w *worker) edge(ctx context.Context, se graph.StreamEdge) error {
	if w.in == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Complete matches reach the sink through the engine sink; the
		// scratch-backed return slice is deliberately unused.
		w.eng.ProcessEdge(se)
		return nil
	}
	msg := message{kind: msgEdge, edge: se}
	if w.obsClock != nil {
		msg.enqNS = w.obsClock.Now()
	}
	if d := ctx.Done(); d != nil {
		select {
		case w.in <- msg:
			return nil
		case <-d:
			return ctx.Err()
		}
	}
	w.in <- msg
	return nil
}

// advance hands the shard a watermark: through its mailbox, and on a lone
// shard straight to its engine.
func (w *worker) advance(ts graph.Timestamp) {
	if w.in == nil {
		w.eng.Advance(ts)
		return
	}
	w.in <- message{kind: msgAdvance, ts: ts}
}

// register adds a query with the given hub on this shard.
func (w *worker) register(q *query.Graph, opts []core.RegistrationOption, hub query.VertexID) (err error) {
	w.do(func() {
		if _, err = w.eng.RegisterQuery(q, opts...); err == nil && w.queries != nil {
			name := q.Name()
			w.queries[name] = homed{hub: hub, emitted: w.eng.ObsRegistry().Counter("query_matches_emitted", obs.QueryLabelKey, name)}
		}
	})
	return err
}

// unregister removes a query from this shard.
func (w *worker) unregister(name string) (err error) {
	w.do(func() {
		if err = w.eng.UnregisterQuery(name); err == nil {
			delete(w.queries, name)
		}
	})
	return err
}

// snapshot reads the shard engine's registry and the view built from it, on
// the worker goroutine if it has one, so the engine refreshes its gauges
// serialized with edge processing.
func (w *worker) snapshot() (m core.Metrics, snap obs.Snapshot) {
	w.do(func() { m, snap = w.eng.Snapshot() })
	return m, snap
}
