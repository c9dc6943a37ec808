package graph

import (
	"math"
	"time"
)

// NoCutoff is the expiry cutoff while nothing has expired: before the first
// time is observed, and for ever under unbounded retention.
const NoCutoff Timestamp = math.MinInt64

// Clock is stream time and the window rules judged on it. The dynamic graph
// (so every engine and shard worker), the sharded front-end and the
// write-ahead log each hold one, and they agree because the rules are
// written only here:
//
//   - The newest time is the largest timestamp observed, an edge's or an
//     explicit advance's (AdvanceTo); the watermark trails it by the slack.
//   - An edge behind the watermark is late and dropped (Late), at every
//     retention; none is late before the first time is observed.
//   - The expiry cutoff, below which nothing is retained (so no edge that is
//     not late), is max(previous, watermark − retention): it never moves
//     back, and it stays NoCutoff under unbounded retention.
//   - A query window widens the retention (Extend) only until an edge has
//     been admitted: after that, edges outside the old window may have
//     expired.
//
// A Clock is a value: changing a copy leaves the original as it was.
type Clock struct {
	retention time.Duration
	slack     time.Duration
	newest    Timestamp
	seen      bool
	admitted  bool
	cutoff    Timestamp
}

// NewClock returns a clock that has observed no time, with the given
// retention (0 retains everything) and out-of-order slack.
func NewClock(retention, slack time.Duration) Clock {
	return Clock{retention: retention, slack: slack, newest: math.MinInt64, cutoff: NoCutoff}
}

// AdvanceTo observes stream time ts: the newest time moves to ts when ts is
// newer, and the cutoff follows it.
func (c *Clock) AdvanceTo(ts Timestamp) {
	if !c.seen || ts > c.newest {
		c.newest, c.seen = ts, true
	}
	if c.retention > 0 {
		c.cutoff = max(c.cutoff, c.Watermark()-Timestamp(c.retention))
	}
}

// Admit records that an edge got in: from now on Extend refuses to widen.
func (c *Clock) Admit() { c.admitted = true }

// Admitted reports whether an edge has got in.
func (c *Clock) Admitted() bool { return c.admitted }

// Newest returns the newest time observed and whether there is one: it is
// math.MinInt64 and false before any.
func (c *Clock) Newest() (Timestamp, bool) { return c.newest, c.seen }

// Watermark returns the newest time minus the slack, the time a match is
// detected at; it is 0 until a time is observed.
func (c *Clock) Watermark() Timestamp {
	if !c.seen {
		return 0
	}
	return c.newest - Timestamp(c.slack)
}

// Late reports whether an edge at ts is dropped for lateness.
func (c *Clock) Late(ts Timestamp) bool { return c.seen && ts < c.Watermark() }

// Cutoff returns the expiry cutoff: nothing older is retained.
func (c *Clock) Cutoff() Timestamp { return c.cutoff }

// Window returns the retention, the window's width; 0 is unbounded.
func (c *Clock) Window() time.Duration { return c.retention }

// Widen grows a bounded retention to w when w is wider. The newest time and
// the cutoff stay: what has expired stays expired, and a late edge is judged
// against the same watermark.
func (c *Clock) Widen(w time.Duration) {
	if c.retention > 0 && w > c.retention {
		c.retention = w
	}
}

// Extend widens the retention for a query of window w, as Widen does, but
// reports false, changing nothing, when w is wider and an edge has already
// been admitted.
func (c *Clock) Extend(w time.Duration) bool {
	if c.admitted && c.retention > 0 && w > c.retention {
		return false
	}
	c.Widen(w)
	return true
}

// Resume folds a saved clock into c, as recovery from a log does: the
// retention widens to retention, the newest time advances to newest when
// seen, and the cutoff is raised to cutoff. Nothing moves back.
func (c *Clock) Resume(retention time.Duration, newest Timestamp, seen bool, cutoff Timestamp) {
	c.Widen(retention)
	if seen {
		c.AdvanceTo(newest)
	}
	c.cutoff = max(c.cutoff, cutoff)
}
