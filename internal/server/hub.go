package server

import (
	"errors"
	"sync"
	"sync/atomic"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/obs"
)

// hub manages the server's HTTP match subscribers. Each subscriber is its
// own per-query push subscription on the engine — the engine filters and
// fans out; the hub only adds the bounded buffer between the engine's
// delivery goroutine and the subscriber's network writes. A subscriber whose
// buffer is full when a match arrives is evicted (its channel closed, ending
// its HTTP stream) rather than waited on: ingest keeps pace with the stream,
// a lagging dashboard reconnects and resubscribes.
type hub struct {
	buffer int
	// subscribe attaches a sink to the engine; injected so the delivery
	// mechanics are unit-testable without an engine.
	subscribe func(query string, sink streamworks.MatchSink) (streamworks.Subscription, error)

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool

	// The hub's counts, in the server's registry; subscribers is set under
	// mu whenever subs changes.
	delivered, evicted *obs.Counter
	subscribers        *obs.Gauge
}

// subscriber is one live match stream: a bounded buffer fed by an engine
// subscription.
type subscriber struct {
	ch chan streamworks.Match
	// sub is the engine-side subscription; its Done closes when the engine
	// has drained and no further matches can arrive.
	sub streamworks.Subscription
	// evicted is set when the hub dropped this subscriber for falling
	// behind, distinguishing eviction from a graceful server drain.
	evicted atomic.Bool
}

// errHubClosed is reported for subscriptions arriving after drain began.
var errHubClosed = errors.New("server: hub closed")

func newHub(buffer int, subscribe func(string, streamworks.MatchSink) (streamworks.Subscription, error), reg *obs.Registry) *hub {
	if buffer <= 0 {
		buffer = 256
	}
	return &hub{
		buffer: buffer, subscribe: subscribe, subs: make(map[*subscriber]struct{}),
		delivered:   reg.Counter("server_matches_delivered", "", ""),
		evicted:     reg.Counter("server_subscribers_evicted", "", ""),
		subscribers: reg.Gauge("server_subscribers", "", ""),
	}
}

// register attaches an engine subscription to a new subscriber for query
// ("" subscribes to every query).
func (h *hub) register(query string) (*subscriber, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errHubClosed
	}
	sub := &subscriber{ch: make(chan streamworks.Match, h.buffer)}
	h.subs[sub] = struct{}{}
	h.subscribers.Set(int64(len(h.subs)))
	h.mu.Unlock()

	engSub, err := h.subscribe(query, streamworks.SinkFunc(func(m streamworks.Match) {
		h.deliver(sub, m)
	}))
	if err != nil {
		h.unsubscribe(sub)
		return nil, err
	}
	h.mu.Lock()
	if _, live := h.subs[sub]; !live {
		// A match flood can evict the subscriber between the two critical
		// sections (its buffer overflowed before the engine subscription
		// handle was recorded, so eviction could not close it — do that
		// here). Hand the subscriber back anyway: its channel is already
		// closed, so the handler serves the normal evicted-subscriber
		// contract — a clean end-of-stream the client answers by
		// resubscribing — instead of a bogus 503 from a healthy server.
		sub.sub = engSub
		h.mu.Unlock()
		engSub.Close()
		return sub, nil
	}
	sub.sub = engSub
	h.mu.Unlock()
	return sub, nil
}

// deliver runs on the engine's delivery goroutine: non-blocking hand-off to
// the subscriber's buffer, eviction on overflow. Membership is checked under
// the lock so a concurrent unsubscribe can never race a send against the
// channel close.
func (h *hub) deliver(sub *subscriber, m streamworks.Match) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, live := h.subs[sub]; !live {
		return
	}
	select {
	case sub.ch <- m:
		h.delivered.Inc()
	default:
		sub.evicted.Store(true)
		delete(h.subs, sub)
		h.subscribers.Set(int64(len(h.subs)))
		close(sub.ch)
		h.evicted.Inc()
		if sub.sub != nil {
			// Safe under h.mu: subscription teardown never waits behind
			// engine ingestion.
			sub.sub.Close()
		}
	}
}

// unsubscribe detaches sub (e.g. the HTTP peer hung up). Safe to call after
// the hub evicted it.
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	_, live := h.subs[sub]
	if live {
		delete(h.subs, sub)
		h.subscribers.Set(int64(len(h.subs)))
		close(sub.ch)
	}
	engSub := sub.sub
	h.mu.Unlock()
	if live && engSub != nil {
		engSub.Close()
	}
}

// close rejects new subscribers. Existing streams are ended by the engine
// drain (each subscription's Done closes), not forcibly here, so buffered
// matches still reach their subscribers.
func (h *hub) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
}
