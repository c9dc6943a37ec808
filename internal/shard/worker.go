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

// ctrlOp discriminates control requests served in-band by the worker loop so
// they serialize with edge processing.
type ctrlOp uint8

const (
	opRegister ctrlOp = iota
	opUnregister
	opMetrics
	// opFlush is a pure barrier: by the time the worker answers, every
	// message enqueued before it has been processed and every match those
	// messages produced has been sent to the merge channel.
	opFlush
)

// message is one mailbox entry: an edge, a watermark advance, or a control
// request.
type message struct {
	kind msgKind
	edge graph.StreamEdge
	ts   graph.Timestamp
	ctrl *ctrlReq
	// enqNS is the wall-clock enqueue time, stamped by the router only when
	// observability is enabled (zero otherwise); the worker subtracts it on
	// dequeue to measure mailbox wait.
	enqNS int64
}

// ctrlReq is a synchronous control request; the worker answers on reply.
type ctrlReq struct {
	op    ctrlOp
	query *query.Graph
	opts  []core.RegistrationOption
	name  string
	reply chan ctrlResp
}

type ctrlResp struct {
	err     error
	name    string // assigned registration name (register)
	metrics core.Metrics
	snap    obs.Snapshot // the reading metrics was built from
}

// shardEvent is one entry on the shared merge channel: either a match event
// or a progress mark announcing how far the shard's watermark has advanced.
// Because a channel preserves each sender's order, a mark guarantees the
// merger has already received every event this shard emitted before reaching
// that watermark — the property the deduplicator's eviction relies on.
type shardEvent struct {
	ev   core.MatchEvent
	mark bool
	id   int             // sending shard (marks only)
	ts   graph.Timestamp // shard watermark (marks only)
	// flush, when non-nil, is a barrier sentinel injected by Flush after
	// every worker acknowledged its mailbox was drained: the merger closes
	// it, proving every event sent before the sentinel has been delivered.
	flush chan struct{}
}

// markEvery is the number of processed edges between progress marks.
const markEvery = 256

// worker owns one shard: a core.Engine, the goroutine that drives it, and
// the mailbox feeding it. The engine is only touched by the worker goroutine
// while running; when stopped, the front-end calls it directly.
type worker struct {
	id  int
	eng *core.Engine

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
			w.out <- shardEvent{ev: ev}
		}))
	}
	w.done.Add(1)
	go w.loop()
}

// stop closes the mailbox; the worker drains it and exits.
func (w *worker) stop() { close(w.in) }

// wait blocks until the worker goroutine has exited.
func (w *worker) wait() { w.done.Wait() }

func (w *worker) loop() {
	defer w.done.Done()
	edges := 0
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
			if edges++; edges%markEvery == 0 {
				w.sendMark()
			}
		case msgAdvance:
			w.eng.Advance(msg.ts)
			w.sendMark()
		case msgCtrl:
			msg.ctrl.reply <- w.serveCtrl(msg.ctrl)
		}
	}
	w.sendMark()
}

func (w *worker) sendMark() {
	w.out <- shardEvent{mark: true, id: w.id, ts: w.eng.Graph().Watermark()}
}

func (w *worker) serveCtrl(req *ctrlReq) ctrlResp {
	switch req.op {
	case opRegister:
		reg, err := w.eng.RegisterQuery(req.query, req.opts...)
		if err != nil {
			return ctrlResp{err: err}
		}
		return ctrlResp{name: reg.Name()}
	case opUnregister:
		return ctrlResp{err: w.eng.UnregisterQuery(req.name)}
	case opMetrics:
		m, snap := w.eng.Snapshot()
		return ctrlResp{metrics: m, snap: snap}
	case opFlush:
		return ctrlResp{}
	}
	return ctrlResp{}
}

// flush blocks until the worker has processed every message enqueued
// before the call. Matches produced by those messages were pushed onto the
// merge channel by the worker goroutine before it answered, so they are
// ordered before anything the caller subsequently sends on that channel.
func (w *worker) flush() {
	w.roundTrip(&ctrlReq{op: opFlush})
}

// roundTrip enqueues a control request and waits for the worker's answer,
// serializing it behind the edges already in the mailbox.
func (w *worker) roundTrip(req *ctrlReq) ctrlResp {
	req.reply = make(chan ctrlResp, 1)
	w.in <- message{kind: msgCtrl, ctrl: req}
	return <-req.reply
}

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

// register adds a query on this shard, via the mailbox when running.
func (w *worker) register(running bool, q *query.Graph, opts []core.RegistrationOption) (string, error) {
	if running {
		resp := w.roundTrip(&ctrlReq{op: opRegister, query: q, opts: opts})
		return resp.name, resp.err
	}
	reg, err := w.eng.RegisterQuery(q, opts...)
	if err != nil {
		return "", err
	}
	return reg.Name(), nil
}

// unregister removes a query on this shard, via the mailbox when running.
func (w *worker) unregister(running bool, name string) error {
	if running {
		return w.roundTrip(&ctrlReq{op: opUnregister, name: name}).err
	}
	return w.eng.UnregisterQuery(name)
}

// snapshot reads the shard engine's registry and the view built from it, via
// the mailbox when running so the engine refreshes its gauges on its own
// goroutine, serialized with edge processing.
func (w *worker) snapshot(running bool) (core.Metrics, obs.Snapshot) {
	if running {
		resp := w.roundTrip(&ctrlReq{op: opMetrics})
		return resp.metrics, resp.snap
	}
	return w.eng.Snapshot()
}
