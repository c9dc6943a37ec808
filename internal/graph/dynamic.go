package graph

import (
	"fmt"
	"math"
	"time"
)

// NoCutoff is the expiry cutoff while nothing has expired: before the first
// edge, and for ever under unbounded retention.
const NoCutoff Timestamp = math.MinInt64

// ExpiryCutoff is the one definition of the expiry bound: the stream time
// below which nothing is retained any more. newest is the largest stream
// time observed so far, NOT trailed by the slack; the bound trails it by the
// retention plus the slack and never moves back, so a wider retention
// arriving later cannot resurrect what was already expired. With zero
// (unbounded) retention it stays where it was: nothing ever expires.
//
// Two things obey it. Dynamic expires edges below it, and with them the
// stream summary's statistics, which are read from the window graph. The
// WAL deletes segments and emitted notes below it; it feeds the function the
// same raw newest stream time as Dynamic, so from the first edge on the two
// agree to the nanosecond.
func ExpiryCutoff(prev, newest Timestamp, retention, slack time.Duration) Timestamp {
	if retention <= 0 {
		return prev
	}
	return max(prev, newest-Timestamp(retention)-Timestamp(slack))
}

// Dynamic is the temporally evolving data graph of the paper: edges arrive
// with timestamps and the graph retains only those whose timestamp falls
// inside a sliding window of configurable width ending at the stream
// watermark (the largest timestamp observed, minus an optional out-of-order
// slack). Expired edges are removed from the underlying Graph so that local
// searches never see data that could not participate in a valid match.
type Dynamic struct {
	g *Graph

	window    time.Duration
	slack     time.Duration
	watermark Timestamp
	cutoff    Timestamp
	seenAny   bool

	// queue orders the handles of live edges by timestamp for window
	// expiry. It is kept sorted up to the allowed slack, which is sufficient
	// because we only expire edges strictly older than watermark-window. An
	// edge leaves the graph only at its head, where its handle is released.
	queue fifo

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

// WithSlack sets the out-of-order slack d. The watermark trails the maximum
// observed timestamp by d, and an edge is rejected only when it is more than
// d behind the watermark: up to 2·d behind the newest edge is admitted. A
// graph with an unbounded window (NewDynamic(0)) rejects no edge for
// lateness, however far behind it is.
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
		g:      New(),
		window: window,
		cutoff: NoCutoff,
	}
	for _, o := range opts {
		o(dg)
	}
	return dg
}

// Graph exposes the window graph for read-only use by matchers and
// statistics collectors.
func (d *Dynamic) Graph() *Graph { return d.g }

// Window returns the configured window width.
func (d *Dynamic) Window() time.Duration { return d.window }

// Watermark returns the current stream watermark: the latest timestamp
// observed minus the out-of-order slack.
func (d *Dynamic) Watermark() Timestamp { return d.watermark }

// Cutoff returns the expiry bound (ExpiryCutoff): every edge older than it
// has already left the graph. It is NoCutoff until something can expire.
func (d *Dynamic) Cutoff() Timestamp { return d.cutoff }

// NumVertices returns the number of live vertices.
func (d *Dynamic) NumVertices() int { return d.g.NumVertices() }

// NumEdges returns the number of live (non-expired) edges.
func (d *Dynamic) NumEdges() int { return d.g.NumEdges() }

// AddedTotal returns the cumulative number of edges ever admitted.
func (d *Dynamic) AddedTotal() uint64 { return d.addedTotal }

// ExpiredTotal returns the cumulative number of edges expired from the window.
func (d *Dynamic) ExpiredTotal() uint64 { return d.expiredTotal }

// Widen grows a bounded window to w when w is wider. The watermark and the
// cutoff stay: the cutoff never moves back, so what has expired stays
// expired, and a late edge is judged against the same watermark.
func (d *Dynamic) Widen(w time.Duration) {
	if d.window > 0 && w > d.window {
		d.window = w
	}
}

// Apply ingests a stream edge: the edge is validated against the watermark,
// endpoint metadata is upserted, the edge is added to the live graph and the
// window is advanced, expiring edges that fall out of it. It returns se's
// edge, held by d and valid only until the next Apply: copy it to keep it.
//
// The graph takes the attribute maps of se by reference: callers must not
// mutate them after Apply. Updates never mutate a stored map in place
// (Attributes.Merge is copy-on-write), so sources are free to share one
// attribute map across many edges and endpoints.
func (d *Dynamic) Apply(se StreamEdge) (*Edge, error) {
	ts := se.Edge.Timestamp
	if d.seenAny && ts < d.watermark-Timestamp(d.slack) && d.window > 0 {
		return nil, &EdgeError{ID: se.Edge.ID, Err: ErrTimestampRegression}
	}
	h, err := d.g.addStreamEdge(&se)
	if err != nil {
		return nil, err
	}
	d.addedTotal++
	d.pushSorted(h, ts)
	d.advance(ts)
	d.applied = se.Edge
	return &d.applied, nil
}

// pushSorted appends handle h, of an edge at ts, to the expiry queue and
// rotates it back past any later-timestamped entries. Arrivals are
// near-ordered (bounded slack), so the rotation is O(1) amortized: in-order
// arrivals never enter the loop.
func (d *Dynamic) pushSorted(h int32, ts Timestamp) {
	q := &d.queue
	q.push(h, &d.g.spares)
	for i := len(q.buf) - 1; i > q.head && d.g.edges.at(q.buf[i-1]).ts > ts; i-- {
		q.buf[i], q.buf[i-1] = q.buf[i-1], h
	}
}

// advance moves the watermark forward to ts-slack (never backwards) and
// expires edges older than the cutoff, watermark-window.
func (d *Dynamic) advance(ts Timestamp) {
	if !d.seenAny {
		d.seenAny = true
		d.watermark = ts - Timestamp(d.slack)
	} else if wm := ts - Timestamp(d.slack); wm > d.watermark {
		d.watermark = wm
	}
	d.cutoff = ExpiryCutoff(d.cutoff, ts, d.window, d.slack)
	d.expire()
}

// AdvanceTo signals that stream time has reached ts without delivering an
// edge (heartbeats, watermark broadcasts from a sharded front-end). It has
// exactly the same watermark semantics as edge ingestion: the watermark
// advances to ts-slack, never backwards, and expiry runs against the new
// watermark. Keeping the two paths identical means interleaving Apply and
// AdvanceTo can never jump the watermark ahead of what an edge at ts would
// produce, so edges still within the out-of-order slack are not prematurely
// expired or rejected.
func (d *Dynamic) AdvanceTo(ts Timestamp) {
	d.advance(ts)
}

// ForEachLiveEdge visits every edge currently retained in the sliding
// window, in timestamp order (up to the ingest slack), until fn returns
// false. The DAG backfills a new or widened node from the window with this
// (mqo's attach); fn must not mutate the graph. The edge fn is passed is
// valid only during the call: copy it to keep it.
func (d *Dynamic) ForEachLiveEdge(fn func(*Edge) bool) {
	var e Edge
	for _, h := range d.queue.live() {
		if e = d.g.edge(h); !fn(&e) {
			return
		}
	}
}

// expire pops the queue's handles below the cutoff, removing their edges,
// and releases each handle for reuse.
func (d *Dynamic) expire() {
	for d.queue.len() > 0 {
		h := d.queue.buf[d.queue.head]
		if d.g.edges.at(h).ts >= d.cutoff {
			return
		}
		if d.onExpire != nil {
			d.expiring = d.g.edge(h)
		}
		d.queue.popFront()
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
		d.window, d.watermark, d.g, d.addedTotal, d.expiredTotal)
}
