package graph

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

func streamEdge(id EdgeID, src, dst VertexID, typ string, ts Timestamp) StreamEdge {
	return StreamEdge{
		Edge:       Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: ts},
		SourceType: "Host",
		TargetType: "Host",
	}
}

// listLen returns the number of edges of l.
func listLen(l EdgeList) int {
	n := 0
	for _, ok := l.Next(); ok; _, ok = l.Next() {
		n++
	}
	return n
}

// edgeIDs returns the IDs of the edges of l, in order.
func edgeIDs(l EdgeList) []EdgeID {
	var ids []EdgeID
	for e, ok := l.Next(); ok; e, ok = l.Next() {
		ids = append(ids, e.ID)
	}
	return ids
}

func TestDynamicApplyAndWindowExpiry(t *testing.T) {
	d := NewDynamic(10 * time.Nanosecond)
	for i := 0; i < 5; i++ {
		if _, err := d.Apply(streamEdge(EdgeID(i), VertexID(i), VertexID(i+1), "flow", Timestamp(i))); err != nil {
			t.Fatalf("Apply(%d): %v", i, err)
		}
	}
	if d.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", d.NumEdges())
	}
	// Advance far enough that the first three edges (ts 0,1,2) fall out of a
	// 10ns window ending at watermark 13.
	d.AdvanceTo(13)
	if d.NumEdges() != 2 {
		t.Fatalf("NumEdges after expiry = %d, want 2", d.NumEdges())
	}
	if d.ExpiredTotal() != 3 {
		t.Fatalf("ExpiredTotal = %d, want 3", d.ExpiredTotal())
	}
	if d.AddedTotal() != 5 {
		t.Fatalf("AddedTotal = %d, want 5", d.AddedTotal())
	}
}

func TestDynamicUnboundedWindowNeverExpires(t *testing.T) {
	d := NewDynamic(0)
	for i := 0; i < 100; i++ {
		if _, err := d.Apply(streamEdge(EdgeID(i), 1, 2, "flow", Timestamp(i*1000))); err != nil {
			t.Fatal(err)
		}
	}
	d.AdvanceTo(1 << 40)
	if d.NumEdges() != 100 {
		t.Fatalf("unbounded window expired edges: %d left", d.NumEdges())
	}
}

func TestDynamicExpiryCallback(t *testing.T) {
	var expired []EdgeID
	d := NewDynamic(5*time.Nanosecond, WithExpiryCallback(func(e *Edge) {
		expired = append(expired, e.ID)
	}))
	for i := 0; i < 10; i++ {
		if _, err := d.Apply(streamEdge(EdgeID(i), VertexID(i), VertexID(i+1), "flow", Timestamp(i))); err != nil {
			t.Fatal(err)
		}
	}
	// watermark is 9, cutoff 4: edges 0..3 expired.
	if len(expired) != 4 {
		t.Fatalf("expiry callback saw %d edges, want 4: %v", len(expired), expired)
	}
	for i, id := range expired {
		if id != EdgeID(i) {
			t.Fatalf("expiry order wrong: %v", expired)
		}
	}
}

func TestDynamicIsolatedVerticesRemovedOnExpiry(t *testing.T) {
	d := NewDynamic(2 * time.Nanosecond)
	if _, err := d.Apply(streamEdge(1, 100, 101, "flow", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(streamEdge(2, 200, 201, "flow", 10)); err != nil {
		t.Fatal(err)
	}
	if hasVertex(d.Graph(), 100) || hasVertex(d.Graph(), 101) {
		t.Fatalf("expired edge endpoints should be garbage collected")
	}
	if !hasVertex(d.Graph(), 200) {
		t.Fatalf("live endpoints must be retained")
	}
}

// TestDynamicOutOfOrderWithinSlack: with a slack of 5 after an edge at
// 1000, an edge at 997 is within the slack of the watermark (995) and
// admitted. One behind the watermark is refused, by a bounded window and an
// unbounded one alike.
func TestDynamicOutOfOrderWithinSlack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
		late   Timestamp
		admit  bool
	}{
		{"bounded window, at the watermark", time.Hour, 995, true},
		{"bounded window, beyond the slack", time.Hour, 980, false},
		{"bounded window, 90× the slack", time.Hour, 1000 - 90*5, false},
		{"unbounded window, beyond the slack", 0, 994, false},
		{"unbounded window, 90× the slack", 0, 1000 - 90*5, false},
	} {
		d := NewDynamic(tc.window, WithSlack(5*time.Nanosecond))
		if _, err := d.Apply(streamEdge(1, 1, 2, "flow", 1000)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Apply(streamEdge(2, 2, 3, "flow", 997)); err != nil {
			t.Fatalf("%s: in-slack edge rejected: %v", tc.name, err)
		}
		_, err := d.Apply(streamEdge(3, 3, 4, "flow", tc.late))
		if tc.admit && err != nil {
			t.Fatalf("%s: edge at %d rejected: %v", tc.name, tc.late, err)
		}
		if !tc.admit && !errors.Is(err, ErrTimestampRegression) {
			t.Fatalf("%s: edge at %d: got %v, want ErrTimestampRegression", tc.name, tc.late, err)
		}
	}
}

// TestDynamicRegressionRefusedWhenUnbounded: an unbounded window judges
// lateness as a bounded one does: with no slack, an edge at the newest time
// is admitted and one behind it refused.
func TestDynamicRegressionRefusedWhenUnbounded(t *testing.T) {
	d := NewDynamic(0)
	if _, err := d.Apply(streamEdge(1, 1, 2, "flow", 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(streamEdge(2, 2, 3, "flow", 100)); err != nil {
		t.Fatalf("an edge at the newest time: %v", err)
	}
	if _, err := d.Apply(streamEdge(3, 3, 4, "flow", 1)); !errors.Is(err, ErrTimestampRegression) {
		t.Fatalf("an edge behind the newest time: got %v, want ErrTimestampRegression", err)
	}
}

func TestDynamicWatermarkMonotone(t *testing.T) {
	d := NewDynamic(time.Minute, WithSlack(2*time.Nanosecond))
	times := []Timestamp{10, 50, 49, 48, 60, 59}
	var last Timestamp
	for i, ts := range times {
		if _, err := d.Apply(streamEdge(EdgeID(i), 1, 2, "flow", ts)); err != nil {
			t.Fatalf("Apply(ts=%d): %v", ts, err)
		}
		if d.Watermark() < last {
			t.Fatalf("watermark regressed from %d to %d", last, d.Watermark())
		}
		last = d.Watermark()
	}
	// AdvanceTo backwards must be a no-op.
	d.AdvanceTo(1)
	if d.Watermark() != last {
		t.Fatalf("AdvanceTo moved the watermark backwards")
	}
}

func TestDynamicAdvanceToRespectsSlack(t *testing.T) {
	// Interleaving Apply and AdvanceTo must not jump the watermark ahead of
	// what edge ingestion at the same timestamp would produce: both paths
	// trail the observed stream time by the slack. Previously AdvanceTo
	// ignored the slack, so an explicit time signal at the current stream
	// time expired edges still inside the slack and rejected edges at the
	// watermark.
	d := NewDynamic(10*time.Nanosecond, WithSlack(5*time.Nanosecond))
	if _, err := d.Apply(streamEdge(1, 1, 2, "flow", 86)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(streamEdge(2, 2, 3, "flow", 100)); err != nil {
		t.Fatal(err)
	}
	if got := d.Watermark(); got != 95 {
		t.Fatalf("watermark after Apply(100) = %d, want 95", got)
	}
	// An explicit advance to the already-observed stream time is a no-op.
	d.AdvanceTo(100)
	if got := d.Watermark(); got != 95 {
		t.Fatalf("AdvanceTo(100) moved watermark to %d, want 95 (ts-slack)", got)
	}
	// Edge 1 (ts=86) is still inside the window: cutoff is 95-10=85.
	if d.NumEdges() != 2 {
		t.Fatalf("AdvanceTo expired in-window edges: %d live, want 2", d.NumEdges())
	}
	// An edge at the watermark is still accepted, and one behind it is late.
	if _, err := d.Apply(streamEdge(3, 3, 4, "flow", 95)); err != nil {
		t.Fatalf("an edge at the watermark rejected after AdvanceTo: %v", err)
	}
	if _, err := d.Apply(streamEdge(4, 4, 5, "flow", 94)); !errors.Is(err, ErrTimestampRegression) {
		t.Fatalf("an edge behind the watermark after AdvanceTo: got %v, want ErrTimestampRegression", err)
	}
	// Advancing the stream clock beyond the observed maximum applies slack too.
	d.AdvanceTo(120)
	if got := d.Watermark(); got != 115 {
		t.Fatalf("AdvanceTo(120) watermark = %d, want 115", got)
	}
	// First watermark from AdvanceTo on a fresh graph also trails by slack.
	fresh := NewDynamic(time.Minute, WithSlack(5*time.Nanosecond))
	fresh.AdvanceTo(50)
	if got := fresh.Watermark(); got != 45 {
		t.Fatalf("first AdvanceTo watermark = %d, want 45", got)
	}
}

func TestDynamicDuplicateEdgeRejected(t *testing.T) {
	d := NewDynamic(time.Minute)
	if _, err := d.Apply(streamEdge(1, 1, 2, "flow", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(streamEdge(1, 1, 2, "flow", 2)); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("expected ErrDuplicateEdge, got %v", err)
	}
}

func TestDynamicStringContainsCounters(t *testing.T) {
	d := NewDynamic(time.Second)
	if _, err := d.Apply(streamEdge(1, 1, 2, "flow", 1)); err != nil {
		t.Fatal(err)
	}
	s := d.String()
	if s == "" {
		t.Fatalf("String() empty")
	}
}

// TestDynamicWidenKeepsWatermarkAndCutoff: widening a bounded window keeps
// the watermark, so an edge behind it is still rejected, and the cutoff,
// so an expired edge stays expired, while the edges still live are kept by
// the wider window from then on.
func TestDynamicWidenKeepsWatermarkAndCutoff(t *testing.T) {
	d := NewDynamic(10 * time.Nanosecond)
	for i, ts := range []Timestamp{0, 35, 45} {
		if _, err := d.Apply(streamEdge(EdgeID(i+1), VertexID(i), VertexID(i+1), "flow", ts)); err != nil {
			t.Fatal(err)
		}
	}
	d.AdvanceTo(50)
	if d.NumEdges() != 1 || d.Cutoff() != 40 {
		t.Fatalf("before widening: %d edges, cutoff %d, want 1 and 40", d.NumEdges(), d.Cutoff())
	}
	d.Widen(100 * time.Nanosecond)
	if d.Window() != 100*time.Nanosecond || d.Watermark() != 50 || d.Cutoff() != 40 {
		t.Fatalf("after widening: window %s, watermark %d, cutoff %d, want 100ns, 50 and 40",
			d.Window(), d.Watermark(), d.Cutoff())
	}
	if hasEdge(d.Graph(), 2) || d.ExpiredTotal() != 2 {
		t.Fatalf("widening brought back an expired edge: %d expired", d.ExpiredTotal())
	}
	if _, err := d.Apply(streamEdge(4, 7, 8, "flow", 41)); !errors.Is(err, ErrTimestampRegression) {
		t.Fatalf("an edge behind the kept watermark: got %v, want ErrTimestampRegression", err)
	}
	d.AdvanceTo(60)
	if !hasEdge(d.Graph(), 3) || d.Cutoff() != 40 {
		t.Fatalf("at 60 under a 100ns window: edge 3 live %v, cutoff %d, want true and 40",
			hasEdge(d.Graph(), 3), d.Cutoff())
	}
}

// TestDynamicWidenOnlyWidensABoundedWindow: a narrower width leaves a
// bounded window as it is, and an unbounded window stays unbounded.
func TestDynamicWidenOnlyWidensABoundedWindow(t *testing.T) {
	d := NewDynamic(10 * time.Nanosecond)
	d.Widen(5 * time.Nanosecond)
	if d.Window() != 10*time.Nanosecond {
		t.Fatalf("a narrower width changed the window to %s", d.Window())
	}
	u := NewDynamic(0)
	u.Widen(time.Second)
	if u.Window() != 0 {
		t.Fatalf("an unbounded window was bounded to %s", u.Window())
	}
	if _, err := u.Apply(streamEdge(1, 1, 2, "flow", 0)); err != nil {
		t.Fatal(err)
	}
	u.AdvanceTo(Timestamp(time.Hour))
	if u.NumEdges() != 1 || u.Cutoff() != NoCutoff {
		t.Fatalf("the unbounded window expired: %d edges, cutoff %d", u.NumEdges(), u.Cutoff())
	}
}

// TestDynamicAdmittedEdgeNeverBelowCutoff: the cutoff trails the watermark
// by the window and an edge behind the watermark is late, so an edge Apply
// admits is never expired by its own Apply, even with a slack five times the
// window, and the edge Apply returns carries its attributes. Stragglers up
// to three slacks behind the newest time are refused exactly when they are
// behind the watermark.
func TestDynamicAdmittedEdgeNeverBelowCutoff(t *testing.T) {
	const window, slack = 2, 10
	var expired []EdgeID
	d := NewDynamic(window*time.Nanosecond, WithSlack(slack*time.Nanosecond),
		WithExpiryCallback(func(e *Edge) { expired = append(expired, e.ID) }))
	rng := rand.New(rand.NewSource(52))
	admitted, refused := 0, 0
	for i := 1; i <= 2000; i++ {
		ts := Timestamp(10 * i)
		if rng.Intn(3) == 0 {
			ts -= Timestamp(rng.Intn(3 * slack))
		}
		late := d.Late(ts)
		se := streamEdge(EdgeID(i), VertexID(rng.Intn(8)), VertexID(8+rng.Intn(8)), "flow", ts)
		se.Edge.Attrs = Attributes{"bytes": Int(int64(i))}
		expired = expired[:0]
		e, err := d.Apply(se)
		if late {
			if !errors.Is(err, ErrTimestampRegression) {
				t.Fatalf("edge %d at %d behind the watermark: got %v, want ErrTimestampRegression", i, ts, err)
			}
			refused++
			continue
		}
		if err != nil {
			t.Fatalf("edge %d at %d, not behind the watermark: %v", i, ts, err)
		}
		admitted++
		if ts < d.Cutoff() || !hasEdge(d.Graph(), EdgeID(i)) || slices.Contains(expired, EdgeID(i)) {
			t.Fatalf("edge %d at %d expired by its own Apply (cutoff %d)", i, ts, d.Cutoff())
		}
		if e.Attrs["bytes"].Int64() != int64(i) {
			t.Fatalf("the edge Apply returned lost its attributes: %v", e.Attrs)
		}
	}
	if admitted == 0 || refused == 0 {
		t.Fatalf("vacuous: %d edges admitted, %d refused", admitted, refused)
	}
}

// TestMutationsCount: the mutation count moves by one for every added or
// removed vertex or edge and every retyped vertex, expiry by AdvanceTo alone
// included, and on nothing else.
func TestMutationsCount(t *testing.T) {
	d := NewDynamic(10)
	g := d.Graph()
	step := func(what string, want uint64, f func()) {
		t.Helper()
		before := g.Mutations()
		f()
		if moved := g.Mutations() - before; moved != want {
			t.Fatalf("%s: mutation count moved by %d, want %d", what, moved, want)
		}
	}
	step("apply, two new endpoints", 3, func() { apply(t, d, streamEdge(1, 1, 2, "flow", 100)) })
	step("apply, merged attributes", 1, func() {
		se := streamEdge(2, 1, 2, "flow", 101)
		se.SourceAttrs = Attributes{"os": Int(1)}
		apply(t, d, se)
	})
	step("apply, retyped endpoint", 2, func() {
		se := streamEdge(3, 1, 2, "flow", 102)
		se.SourceType = "Server"
		apply(t, d, se)
	})
	step("advance, nothing expires", 0, func() { d.AdvanceTo(105) })
	step("advance, three edges and two vertices expire", 5, func() { d.AdvanceTo(200) })
	step("advance, nothing left to expire", 0, func() { d.AdvanceTo(300) })
}

// Incidence lists are in arrival order: an edge that arrives out of
// timestamp order within the slack keeps its arrival position, and expiry,
// also of an edge a few slots in, leaves the rest in order. Odd edges leave
// the hub and even edges enter it.
func TestIncidenceListsKeepArrivalOrder(t *testing.T) {
	const hub = VertexID(1)
	d := NewDynamic(10, WithSlack(3))
	g := d.Graph()
	apply := func(id EdgeID, ts Timestamp) {
		t.Helper()
		src, dst := hub, VertexID(100+id)
		if id%2 == 0 {
			src, dst = dst, hub
		}
		if _, err := d.Apply(streamEdge(id, src, dst, "flow", ts)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, out, in []EdgeID) {
		t.Helper()
		if got := edgeIDs(g.OutEdges(hub)); !slices.Equal(got, out) {
			t.Fatalf("%s: out-edges %v, want %v", when, got, out)
		}
		if got := edgeIDs(g.InEdges(hub)); !slices.Equal(got, in) {
			t.Fatalf("%s: in-edges %v, want %v", when, got, in)
		}
	}
	for i, ts := range []Timestamp{10, 11, 12, 9, 13, 14, 15, 16, 17, 18} {
		apply(EdgeID(i+1), ts)
	}
	check("arrival, edge 4 out of order", []EdgeID{1, 3, 5, 7, 9}, []EdgeID{2, 4, 6, 8, 10})
	apply(11, 19)
	apply(12, 20)
	d.AdvanceTo(23) // cutoff 10: edge 4 (ts 9), behind edge 2 in the list
	check("edge 4 expired", []EdgeID{1, 3, 5, 7, 9, 11}, []EdgeID{2, 6, 8, 10, 12})
	d.AdvanceTo(28) // cutoff 15: edges 1, 2, 3, 5, 6 (ts 10…14)
	check("edges 1 to 6 expired", []EdgeID{7, 9, 11}, []EdgeID{8, 10, 12})
}

// BenchmarkDynamicHubWindow applies edges into one hub that holds 16384
// live in-edges: every Apply expires the hub's oldest in-edge.
func BenchmarkDynamicHubWindow(b *testing.B) {
	const window, hub = 1 << 14, VertexID(1)
	empty := heapInUse()
	d := NewDynamic(window)
	next := 0
	apply := func() {
		src := VertexID(2 + next%4096)
		if _, err := d.Apply(streamEdge(EdgeID(next), src, hub, "flow", Timestamp(next))); err != nil {
			b.Fatal(err)
		}
		next++
	}
	for next < 2*window {
		apply()
	}
	if n := listLen(d.Graph().InEdges(hub)); n < 10000 {
		b.Fatalf("the hub holds %d in-edges", n)
	}
	benchApply(b, d, empty, apply)
}

// BenchmarkDynamicNetflowWindow applies edges in the netflow shape: a window
// of 30000 edges between 2000 hosts, three flow types, one edge per tick, so
// every Apply expires one edge.
func BenchmarkDynamicNetflowWindow(b *testing.B) {
	const window, hosts = 30000, 2000
	rng := rand.New(rand.NewSource(1))
	types := []string{"tcp", "udp", "icmp"}
	empty := heapInUse()
	d := NewDynamic(window)
	next := 0
	apply := func() {
		src, dst := VertexID(rng.Intn(hosts)), VertexID(rng.Intn(hosts))
		if _, err := d.Apply(streamEdge(EdgeID(next), src, dst, types[next%3], Timestamp(next))); err != nil {
			b.Fatal(err)
		}
		next++
	}
	for next < 2*window {
		apply()
	}
	if n := d.NumEdges(); n != window+1 {
		b.Fatalf("the window holds %d edges", n)
	}
	benchApply(b, d, empty, apply)
}

// benchApply times b.N calls of apply and reports the exact mallocs per
// 1000 of them (allocs/op rounds a few allocations in many calls down to 0)
// and the bytes d holds per live edge: the heap after a collection, less
// empty, the heap before d was built.
func benchApply(b *testing.B, d *Dynamic, empty uint64, apply func()) {
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		apply()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(1000*float64(after.Mallocs-before.Mallocs)/float64(b.N), "mallocs/kapply")
	b.ReportMetric(float64(heapInUse()-empty)/float64(d.NumEdges()), "B/live-edge")
}
