package core

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
)

// stepClock moves step nanoseconds forward on every read.
type stepClock struct{ now, step int64 }

func (c *stepClock) Now() int64 {
	c.now += c.step
	return c.now
}

// TestWindowApplySegment: with observability on, every edge the window
// graph applies adds one window_apply sample, timed through the configured
// clock, and an edge it drops adds none; with observability off the segment
// records nothing.
func TestWindowApplySegment(t *testing.T) {
	feed := func(e *Engine) {
		for i := range 5 {
			e.ProcessEdge(hostEdge(graph.EdgeID(i), 1, graph.VertexID(2+i), "icmp_echo_req", graph.Timestamp(i)))
		}
		e.ProcessEdge(hostEdge(0, 1, 2, "icmp_echo_req", 5)) // a duplicate ID: dropped
	}
	segment := func(e *Engine) (obs.HistogramSnapshot, bool) {
		return e.ObsRegistry().Snapshot().Find(obs.SegmentHistogramName, obs.SegWindowApply)
	}

	clock := &stepClock{step: 7}
	on := New(&Config{Retention: time.Minute, Obs: obs.Config{Enabled: true, Clock: clock}})
	if _, err := on.RegisterQuery(smurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	feed(on)
	h, ok := segment(on)
	if !ok || h.Count != 5 || h.Sum != 5*clock.step {
		t.Fatalf("window_apply with obs on: found %v, %d samples summing to %d ns, want 5 summing to %d",
			ok, h.Count, h.Sum, 5*clock.step)
	}

	off := New(&Config{Retention: time.Minute, Obs: obs.Config{Clock: clock}})
	before := clock.now
	feed(off)
	if h, ok := segment(off); ok && h.Count != 0 || clock.now != before {
		t.Fatalf("window_apply with obs off: %d samples, clock read %d times", h.Count, (clock.now-before)/clock.step)
	}
}
