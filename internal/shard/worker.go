package shard

import (
	"context"
	"sync"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
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
	// enqNS is the wall-clock enqueue time, stamped by the front-end only when
	// observability is enabled (zero otherwise); the worker subtracts it on
	// dequeue to measure mailbox wait.
	enqNS int64
}

// worker owns one shard: a core.Engine and, above one shard, the goroutine
// that drives it and the mailbox feeding it, both made at construction. A
// worker has a goroutine exactly when it has a mailbox; a lone shard has
// neither, and the front-end calls its engine on the caller's goroutine.
type worker struct {
	id  int
	eng *core.Engine
	// queries is the number of queries registered on this shard, read and
	// written by the front-end.
	queries int
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

// newWorker builds shard id around eng. Matches are delivered by an
// engine-level sink at the moment of emission, on whichever goroutine
// drives the engine: each is handed to sink under mu, the lock every shard
// delivers under, so sink is never entered twice at once.
func newWorker(id int, eng *core.Engine, mu *sync.Mutex, sink core.MatchSink) *worker {
	w := &worker{id: id, eng: eng, mu: mu, sink: sink}
	eng.Subscribe("", core.MatchSinkFunc(w.deliver))
	return w
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

// snapshot reads the shard engine's registry and the view built from it, on
// the worker goroutine if it has one, so the engine refreshes its gauges
// serialized with edge processing.
func (w *worker) snapshot() (m core.Metrics, snap obs.Snapshot) {
	w.do(func() { m, snap = w.eng.Snapshot() })
	return m, snap
}
