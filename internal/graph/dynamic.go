package graph

import (
	"fmt"
	"time"
)

// Dynamic is the temporally evolving data graph of the paper: edges arrive
// with timestamps and the graph retains only those above its Clock's expiry
// cutoff. Expired edges are removed from the underlying Graph so that local
// searches never see data that could not participate in a valid match. The
// embedded Clock is read (Watermark, Cutoff, Window) and widened through the
// Dynamic; its time moves only through Apply and AdvanceTo, which expire.
//
// The expiry queue holds every live edge in timestamp order, arrivals of
// equal time in arrival order. It takes no memory of its own: it is a chain
// threaded through the edge records (edgeRecord.later), like the incidence
// lists. An edge in order joins at its tail. A straggler is not behind the
// watermark, or it would be late, so it joins past behind, the last edge
// that is. Expiry pops at the head: under a bounded retention the cutoff is
// below the watermark, so it never passes behind's successor.
type Dynamic struct {
	Clock

	g *Graph

	// head and tail are handle+1 of the ends of the expiry queue, behind of
	// its last edge behind the watermark; 0 when there is none.
	head, tail, behind int32

	// onExpire, when set, is invoked for every edge evicted from the window,
	// with expiring holding it.
	onExpire func(*Edge)
	expiring Edge

	// applied holds the edge Apply returns, until the next Apply.
	applied Edge

	expiredTotal uint64
	addedTotal   uint64
}

// DynamicOption configures a Dynamic graph.
type DynamicOption func(*Dynamic)

// WithSlack sets the out-of-order slack d; Clock states which edges it lets
// in and which it drops as late.
func WithSlack(d time.Duration) DynamicOption {
	return func(dg *Dynamic) { dg.slack = d }
}

// WithExpiryCallback registers fn to be called for every edge that leaves
// the sliding window. The edge fn is passed is valid only during the call:
// copy it to keep it. The engine needs none: its partial matches leave the
// window by their span, as the edges do by their timestamp.
func WithExpiryCallback(fn func(*Edge)) DynamicOption {
	return func(dg *Dynamic) { dg.onExpire = fn }
}

// NewDynamic constructs a dynamic graph with the given sliding-window width.
// A window of zero means "unbounded": edges are never expired.
func NewDynamic(window time.Duration, opts ...DynamicOption) *Dynamic {
	dg := &Dynamic{
		Clock: NewClock(window, 0),
		g:     New(),
	}
	for _, o := range opts {
		o(dg)
	}
	return dg
}

// Graph exposes the window graph for read-only use by matchers and
// statistics collectors.
func (d *Dynamic) Graph() *Graph { return d.g }

// NumVertices returns the number of live vertices.
func (d *Dynamic) NumVertices() int { return d.g.NumVertices() }

// NumEdges returns the number of live (non-expired) edges.
func (d *Dynamic) NumEdges() int { return d.g.NumEdges() }

// AddedTotal returns the cumulative number of edges ever admitted.
func (d *Dynamic) AddedTotal() uint64 { return d.addedTotal }

// ExpiredTotal returns the cumulative number of edges expired from the window.
func (d *Dynamic) ExpiredTotal() uint64 { return d.expiredTotal }

// Apply ingests a stream edge: a late edge is refused (Clock.Late), endpoint
// metadata is upserted, the edge is added to the live graph and the
// window is advanced, expiring edges that fall out of it. It returns se's
// edge, held by d and valid only until the next Apply: copy it to keep it.
// An edge refused for its ID (a duplicate or a reserved one) is still stream
// time: the window advances to it as if it had been admitted, so lateness
// is judged the same whether or not the edges before were admitted.
//
// The graph takes the attribute maps of se by reference: callers must not
// mutate them after Apply. Updates never mutate a stored map in place
// (Attributes.Merge is copy-on-write), so sources are free to share one
// attribute map across many edges and endpoints.
func (d *Dynamic) Apply(se StreamEdge) (*Edge, error) {
	ts := se.Edge.Timestamp
	if d.Late(ts) {
		return nil, &EdgeError{ID: se.Edge.ID, Err: ErrTimestampRegression}
	}
	h, err := d.g.addStreamEdge(&se)
	if err != nil {
		d.AdvanceTo(ts)
		return nil, err
	}
	d.addedTotal++
	d.Admit()
	d.enqueue(h, ts)
	d.AdvanceTo(ts)
	d.applied = se.Edge
	return &d.applied, nil
}

// after returns handle+1 of the queued edge after the one of s (handle+1),
// the head when s is 0.
func (d *Dynamic) after(s int32) int32 {
	if s == 0 {
		return d.head
	}
	return d.g.edges.at(s - 1).later
}

// enqueue links edge h, at ts, into the expiry queue after the last queued
// edge not later than ts: at the tail when it arrived in order, and
// otherwise found by a walk from behind, over the edges within the slack.
func (d *Dynamic) enqueue(h int32, ts Timestamp) {
	prev := d.tail
	if prev != 0 && d.g.edges.at(prev-1).ts > ts {
		prev = d.behind
		for s := d.after(prev); d.g.edges.at(s-1).ts <= ts; s = d.after(s) {
			prev = s
		}
	}
	d.g.edges.at(h).later = d.after(prev)
	if prev == 0 {
		d.head = h + 1
	} else {
		d.g.edges.at(prev - 1).later = h + 1
	}
	if prev == d.tail {
		d.tail = h + 1
	}
}

// AdvanceTo moves the clock to stream time ts and expires the edges below
// its cutoff, exactly as Apply does for an edge at ts: heartbeats call it
// between edges.
func (d *Dynamic) AdvanceTo(ts Timestamp) {
	d.Clock.AdvanceTo(ts)
	wm := d.Watermark()
	for s := d.after(d.behind); s != 0 && d.g.edges.at(s-1).ts < wm; s = d.after(s) {
		d.behind = s
	}
	d.expire()
}

// ForEachLiveEdge visits every edge currently retained in the sliding
// window, in timestamp order (arrivals of equal time in arrival order),
// until fn returns false. The DAG backfills a new or widened node from the window with this
// (mqo's attach); fn must not mutate the graph. The edge fn is passed is
// valid only during the call: copy it to keep it.
func (d *Dynamic) ForEachLiveEdge(fn func(*Edge) bool) {
	var e Edge
	for s := d.head; s != 0; s = d.after(s) {
		if e = d.g.edge(s - 1); !fn(&e) {
			return
		}
	}
}

// expire pops the queue's edges below the cutoff, removing them, and
// releases each handle for reuse.
func (d *Dynamic) expire() {
	for d.head != 0 {
		h := d.head - 1
		if d.g.edges.at(h).ts >= d.Cutoff() {
			return
		}
		if d.onExpire != nil {
			d.expiring = d.g.edge(h)
		}
		d.head = d.g.edges.at(h).later
		if d.head == 0 {
			d.tail = 0
		}
		if d.behind == h+1 {
			d.behind = 0
		}
		src, dst := d.g.remove(h)
		d.expiredTotal++
		d.g.removeIfIsolated(src)
		if dst != src {
			d.g.removeIfIsolated(dst)
		}
		if d.onExpire != nil {
			d.onExpire(&d.expiring)
		}
		d.g.edges.release(h)
	}
}

// String summarizes the dynamic graph state.
func (d *Dynamic) String() string {
	return fmt.Sprintf("Dynamic(window=%s, watermark=%d, %s, added=%d, expired=%d)",
		d.Window(), d.Watermark(), d.g, d.addedTotal, d.expiredTotal)
}
