package shard

import (
	"context"
	"sync"
	"time"

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

// shardEvent is one entry on the shared merge channel: a match event, or —
// when flush is non-nil — a barrier sentinel injected by Flush after every
// worker acknowledged its mailbox was drained: the merger closes it, proving
// every event sent before the sentinel has been delivered.
type shardEvent struct {
	ev    core.MatchEvent
	flush chan struct{}
}

// worker owns one shard: a core.Engine, the goroutine that drives it, and
// the mailbox feeding it. The engine is only touched by the worker goroutine
// while running; when stopped, the front-end calls it directly.
type worker struct {
	id, shards int
	eng        *core.Engine
	// hubs is the hub of every query registered on this shard (noHub for a
	// hub-free one), read by the engine sink to forward only the matches
	// this shard owns. Written and read on the worker goroutine, or by the
	// front-end while stopped.
	hubs map[string]query.VertexID

	in   chan message
	out  chan<- shardEvent
	done sync.WaitGroup

	// sinkAttached records that the engine-level match sink forwarding to
	// the merge channel has been registered (once, on first start).
	sinkAttached bool

	// Observability handles, resolved at construction when enabled (both nil
	// otherwise): the shared clock and the worker-registry mailbox-wait
	// histogram. The histogram lives in the same per-worker registry as the
	// worker engine's segments, so one fold covers both.
	obsClock   obs.Clock
	obsMailbox *obs.Histogram
}

// start spawns the worker goroutine with a fresh mailbox. Matches are pushed
// onto the merge channel by an engine-level sink at the moment of emission —
// the core MatchSink path threaded up through the merger — rather than by
// collecting ProcessEdge return slices.
func (w *worker) start(out chan<- shardEvent) {
	w.in = make(chan message, mailboxDepth)
	w.out = out
	if !w.sinkAttached {
		w.sinkAttached = true
		w.eng.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) {
			if w.owns(ev) {
				w.out <- shardEvent{ev: ev}
			}
		}))
	}
	w.done.Add(1)
	go w.loop()
}

// owns reports whether this shard is the one that forwards ev to the merger:
// the owner of the data vertex bound to its query's hub. Other shards may
// find the same match — a shard is sent every edge of the vertices it owns,
// so it also holds edges at their far ends — but only the owner is certain
// to. A hub-free query lives on one shard, which forwards all it finds.
func (w *worker) owns(ev core.MatchEvent) bool {
	hub := w.hubs[ev.Query]
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
			// Complete matches reach the merge channel through the engine
			// sink registered in start; the scratch-backed return slice is
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
// been sent to the merge channel before fn runs.
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
// before the call. Matches produced by those messages were pushed onto the
// merge channel by the worker goroutine before it answered, so they are
// ordered before anything the caller subsequently sends on that channel.
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
func (w *worker) register(running bool, q *query.Graph, opts []core.RegistrationOption, hub query.VertexID) (name string, err error) {
	w.do(running, func() {
		var reg *core.Registration
		if reg, err = w.eng.RegisterQuery(q, opts...); err == nil {
			name = reg.Name()
			w.hubs[name] = hub
		}
	})
	return name, err
}

// unregister removes a query from this shard.
func (w *worker) unregister(running bool, name string) (err error) {
	w.do(running, func() {
		if err = w.eng.UnregisterQuery(name); err == nil {
			delete(w.hubs, name)
		}
	})
	return err
}

// extendRetention widens this shard's window to that of a query living on
// other shards.
func (w *worker) extendRetention(running bool, window time.Duration) (err error) {
	w.do(running, func() { err = w.eng.ExtendRetention(window) })
	return err
}

// snapshot reads the shard engine's registry and the view built from it, on
// the worker goroutine when running so the engine refreshes its gauges
// serialized with edge processing.
func (w *worker) snapshot(running bool) (m core.Metrics, snap obs.Snapshot) {
	w.do(running, func() { m, snap = w.eng.Snapshot() })
	return m, snap
}
