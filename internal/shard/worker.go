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

// worker owns one shard: a core.Engine, the goroutine that drives it, and
// the mailbox feeding it. The engine is only touched by the worker goroutine
// while running; when stopped, the front-end calls it directly.
type worker struct {
	id, shards int
	eng        *core.Engine
	// queries holds every query registered on this shard, read by the
	// engine sink to deliver only the matches this shard owns. Written and
	// read on the worker goroutine, or by the front-end while stopped.
	queries map[string]homed
	// emitted counts the matches this shard delivered, in its engine's
	// registry.
	emitted *obs.Counter

	in   chan message
	done sync.WaitGroup

	// Observability handles, resolved at construction when enabled (all nil
	// otherwise): the shared clock and the worker-registry mailbox-wait and
	// dispatch histograms. They live in the same per-worker registry as the
	// worker engine's segments, so one fold covers all.
	obsClock    obs.Clock
	obsMailbox  *obs.Histogram
	obsDispatch *obs.Histogram
}

// homed is one query registered on a shard: its hub (noHub for a hub-free
// query) and its count of the matches this shard delivered, resolved in the
// shard engine's registry, so UnregisterQuery forgets it with the query's
// other series.
type homed struct {
	hub     query.VertexID
	emitted *obs.Counter
}

// start spawns the worker goroutine with a fresh mailbox. Matches are
// delivered by an engine-level sink at the moment of emission: a match this
// shard owns is counted and handed to sink under mu, the lock every shard
// delivers under, so sink is never entered twice at once.
func (w *worker) start(mu *sync.Mutex, sink core.MatchSink) {
	w.in = make(chan message, mailboxDepth)
	w.eng.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) {
		q := w.queries[ev.Query]
		if !w.owns(q.hub, ev) {
			return
		}
		q.emitted.Inc()
		w.emitted.Inc()
		mu.Lock()
		defer mu.Unlock()
		if w.obsDispatch != nil && ev.EmittedWallNS != 0 {
			// Dispatch latency: core emission → delivery, including the
			// wait for the other shards' deliveries.
			w.obsDispatch.Observe(w.obsClock.Now() - ev.EmittedWallNS)
		}
		if sink != nil {
			sink.OnMatch(ev)
		}
	}))
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

// stop closes the mailbox; the worker drains it and exits.
func (w *worker) stop() { close(w.in) }

// wait blocks until the worker goroutine has exited.
func (w *worker) wait() { w.done.Wait() }

func (w *worker) loop() {
	defer w.done.Done()
	for msg := range w.in {
		switch msg.kind {
		case msgEdge:
			if msg.enqNS != 0 && w.obsMailbox != nil {
				w.obsMailbox.Observe(w.obsClock.Now() - msg.enqNS)
			}
			// Complete matches reach the sink through the engine sink
			// registered in start; the scratch-backed return slice is
			// deliberately unused.
			w.eng.ProcessEdge(msg.edge)
		case msgAdvance:
			w.eng.Advance(msg.ts)
		case msgCtrl:
			msg.ctrl()
		}
	}
}

// do runs fn against the shard's engine: on the worker goroutine, behind the
// messages already in its mailbox, when running — returning once fn has —
// and directly otherwise. Every match the earlier messages produced has
// been delivered before fn runs.
func (w *worker) do(running bool, fn func()) {
	if !running {
		fn()
		return
	}
	done := make(chan struct{})
	w.in <- message{kind: msgCtrl, ctrl: func() { fn(); close(done) }}
	<-done
}

// flush blocks until the worker has processed every message enqueued
// before the call and delivered every match they produced.
func (w *worker) flush() { w.do(true, func() {}) }

// enqueueEdge delivers an edge to the shard (blocking when the mailbox is
// full — backpressure to the stream driver). A context with cancellation
// bounds the wait; context.Background() takes the uninstrumented fast path.
func (w *worker) enqueueEdge(ctx context.Context, se graph.StreamEdge) error {
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

// enqueueAdvance delivers a watermark broadcast.
func (w *worker) enqueueAdvance(ts graph.Timestamp) {
	w.in <- message{kind: msgAdvance, ts: ts}
}

// register adds a query with the given hub on this shard.
func (w *worker) register(running bool, q *query.Graph, opts []core.RegistrationOption, hub query.VertexID) (err error) {
	w.do(running, func() {
		if _, err = w.eng.RegisterQuery(q, opts...); err == nil {
			name := q.Name()
			w.queries[name] = homed{hub: hub, emitted: w.eng.ObsRegistry().Counter("query_matches_emitted", obs.QueryLabelKey, name)}
		}
	})
	return err
}

// unregister removes a query from this shard.
func (w *worker) unregister(running bool, name string) (err error) {
	w.do(running, func() {
		if err = w.eng.UnregisterQuery(name); err == nil {
			delete(w.queries, name)
		}
	})
	return err
}

// snapshot reads the shard engine's registry and the view built from it, on
// the worker goroutine when running so the engine refreshes its gauges
// serialized with edge processing.
func (w *worker) snapshot(running bool) (m core.Metrics, snap obs.Snapshot) {
	w.do(running, func() { m, snap = w.eng.Snapshot() })
	return m, snap
}
