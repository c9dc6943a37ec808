package stats

import (
	"math/rand"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

func flowEdge(id graph.EdgeID, src, dst graph.VertexID, typ, srcT, dstT string, ts graph.Timestamp) graph.StreamEdge {
	return graph.StreamEdge{
		Edge:       graph.Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: ts},
		SourceType: srcT,
		TargetType: dstT,
	}
}

// observe applies se to g and hands it to s, the way the engine does.
func observe(s *Summary, g *graph.Graph, se graph.StreamEdge) {
	if _, err := g.AddStreamEdge(se); err != nil {
		panic(err)
	}
	s.Observe(se, g)
}

func TestSummaryTypeCounts(t *testing.T) {
	s := NewSummary()
	if s.TotalEdges() != 0 || s.TotalVertices() != 0 || s.EdgeTypeCount("flow") != 0 {
		t.Fatalf("a summary that has seen no graph must count nothing")
	}
	g := graph.New(graph.WithAutoVertices())
	observe(s, g, flowEdge(1, 1, 2, "flow", "Host", "Host", 1))
	observe(s, g, flowEdge(2, 1, 3, "flow", "Host", "Server", 2))
	observe(s, g, flowEdge(3, 2, 3, "dns", "Host", "Server", 3))

	if s.TotalEdges() != 3 {
		t.Fatalf("TotalEdges = %d", s.TotalEdges())
	}
	if s.TotalVertices() != 3 {
		t.Fatalf("TotalVertices = %d", s.TotalVertices())
	}
	if s.EdgeTypeCount("flow") != 2 || s.EdgeTypeCount("dns") != 1 {
		t.Fatalf("edge type counts wrong")
	}
	if s.VertexTypeCount("Host") != 2 || s.VertexTypeCount("Server") != 1 {
		t.Fatalf("vertex type counts wrong: Host=%d Server=%d",
			s.VertexTypeCount("Host"), s.VertexTypeCount("Server"))
	}
}

func TestSummaryVertexRetyping(t *testing.T) {
	s := NewSummary()
	g := graph.New(graph.WithAutoVertices())
	// First sighting has no type, second supplies one.
	observe(s, g, flowEdge(1, 1, 2, "flow", "", "Host", 1))
	observe(s, g, flowEdge(2, 1, 3, "flow", "Workstation", "Host", 2))
	if s.VertexTypeCount("Workstation") != 1 {
		t.Fatalf("late-arriving vertex type not recorded")
	}
	if s.VertexTypeCount("") != 0 {
		t.Fatalf("untyped count should drop after reclassification, got %d", s.VertexTypeCount(""))
	}
}

// TestSummaryCountsFollowWindow: the counts are the window's, so the edges
// and vertices that expire leave them.
func TestSummaryCountsFollowWindow(t *testing.T) {
	dyn := graph.NewDynamic(10 * time.Second)
	s := NewSummary()
	for i := 0; i < 40; i++ {
		typ := "flow"
		if i >= 30 {
			typ = "scan"
		}
		se := flowEdge(graph.EdgeID(i+1), graph.VertexID(i), graph.VertexID(i+1), typ, "Host", "Host", graph.Timestamp(i)*graph.Timestamp(time.Second))
		if _, err := dyn.Apply(se); err != nil {
			t.Fatal(err)
		}
		s.Observe(se, dyn.Graph())
	}
	if s.TotalEdges() != uint64(dyn.NumEdges()) || s.TotalVertices() != uint64(dyn.NumVertices()) {
		t.Fatalf("summary counts %d edges, %d vertices; the window holds %d, %d",
			s.TotalEdges(), s.TotalVertices(), dyn.NumEdges(), dyn.NumVertices())
	}
	if s.EdgeTypeCount("scan") != 10 || s.EdgeTypeCount("flow") != uint64(dyn.NumEdges()-10) {
		t.Fatalf("window type counts wrong: scan=%d flow=%d", s.EdgeTypeCount("scan"), s.EdgeTypeCount("flow"))
	}
}

// TestSummaryObserveGraph: the counts are the observed graph's, including
// what it held before the summary saw any of its edges, and they follow the
// graph last handed to Observe.
func TestSummaryObserveGraph(t *testing.T) {
	g := graph.New(graph.WithAutoVertices())
	g.AddVertex(graph.Vertex{ID: 1, Type: "A"})
	g.AddVertex(graph.Vertex{ID: 2, Type: "B"})
	g.AddVertex(graph.Vertex{ID: 3, Type: "B"})
	g.AddEdge(graph.Edge{ID: 1, Source: 1, Target: 2, Type: "x", Timestamp: 1})
	s := NewSummary()
	observe(s, g, flowEdge(2, 1, 3, "y", "A", "B", 2))
	if s.TotalEdges() != 2 || s.TotalVertices() != 3 {
		t.Fatalf("summary counts %d edges, %d vertices; the graph holds 2, 3", s.TotalEdges(), s.TotalVertices())
	}
	if s.VertexTypeCount("B") != 2 || s.EdgeTypeCount("x") != 1 {
		t.Fatalf("types the graph held before Observe not counted")
	}

	other := graph.New(graph.WithAutoVertices())
	observe(s, other, flowEdge(3, 7, 8, "z", "C", "C", 3))
	if s.TotalEdges() != 1 || s.EdgeTypeCount("x") != 0 || s.VertexTypeCount("C") != 2 {
		t.Fatalf("summary still reads the previous graph: %d edges, x=%d, C=%d",
			s.TotalEdges(), s.EdgeTypeCount("x"), s.VertexTypeCount("C"))
	}
}

func TestSummaryTriadCollection(t *testing.T) {
	g := graph.New(graph.WithAutoVertices())
	s := NewSummary(WithTriadSampling(1))
	// Build a wedge: a -req-> b, b -reply-> c. The second edge forms one
	// triad centred at b.
	observe(s, g, flowEdge(1, 1, 2, "req", "Host", "Host", 1))
	observe(s, g, flowEdge(2, 2, 3, "reply", "Host", "Host", 2))

	key := canonicalTriad("Host", "reply", true, "req", false)
	if got := s.TriadFrequency(key); got != 1 {
		t.Fatalf("req/reply triad centred at Host counted %d times, want 1", got)
	}
}

func TestSummaryTriadSamplingDisabled(t *testing.T) {
	g := graph.New(graph.WithAutoVertices())
	s := NewSummary(WithTriadSampling(0))
	for i := 0; i < 10; i++ {
		observe(s, g, flowEdge(graph.EdgeID(i), 0, graph.VertexID(i+1), "flow", "Hub", "Leaf", graph.Timestamp(i)))
	}
	if n := s.TriadFrequency(canonicalTriad("Hub", "flow", true, "flow", true)); n != 0 {
		t.Fatalf("%d triads recorded despite sampling disabled", n)
	}
}

// hubStar observes a star of nine "flow" edges out of hub 0 into s: edge i
// forms i-1 wedges at the hub and none at its leaf.
func hubStar(s *Summary) {
	g := graph.New(graph.WithAutoVertices())
	for i := 1; i <= 9; i++ {
		observe(s, g, flowEdge(graph.EdgeID(i), 0, graph.VertexID(i), "flow", "Hub", "Leaf", graph.Timestamp(i)))
	}
}

// TestSummaryTriadSamplingRate: with sampling n only every nth edge scans for
// wedges, and TriadScale is the factor that compensates.
func TestSummaryTriadSamplingRate(t *testing.T) {
	key := canonicalTriad("Hub", "flow", true, "flow", true)
	for _, tc := range []struct {
		sampling int
		want     uint64
		scale    float64
	}{
		{1, 36, 1},        // 0+1+...+8
		{3, 2 + 5 + 8, 3}, // only edges 3, 6 and 9 scan
		{0, 0, 1},
	} {
		s := NewSummary(WithTriadSampling(tc.sampling))
		hubStar(s)
		if got := s.TriadFrequency(key); got != tc.want {
			t.Errorf("sampling %d: %d hub wedges counted, want %d", tc.sampling, got, tc.want)
		}
		if got := s.TriadScale(); got != tc.scale {
			t.Errorf("sampling %d: TriadScale = %v, want %v", tc.sampling, got, tc.scale)
		}
	}
	if got := NewSummary().TriadScale(); got != 10 {
		t.Errorf("default TriadScale = %v, want 10", got)
	}
}

// TestTriadRingStaysBoundedWhenIdle: a wedge is kept exactly while its
// earlier edge is in the window; after that a window that keeps moving
// without new edges leaves one empty generation, not one per seal; and a
// cutoff that moves backwards changes nothing.
func TestTriadRingStaysBoundedWhenIdle(t *testing.T) {
	const retention = 80 * time.Nanosecond // a generation seals every 10ns
	g := graph.New(graph.WithAutoVertices())
	var r triadRing
	for _, se := range []graph.StreamEdge{
		flowEdge(1, 1, 2, "req", "Host", "Host", 100),
		flowEdge(2, 2, 3, "reply", "Host", "Host", 101),
	} {
		if _, err := g.AddStreamEdge(se); err != nil {
			t.Fatal(err)
		}
		r.observeEdge(g, &se.Edge)
	}
	key := canonicalTriad("Host", "reply", true, "req", false)
	for c := graph.Timestamp(1); c <= 1000; c++ {
		r.expire(c, retention)
		want := uint64(0)
		if c <= 100 {
			want = 1
		}
		if got := r.count(key); got != want {
			t.Fatalf("cutoff %d: wedge starting at 100 counted %d times, want %d", c, got, want)
		}
		if len(r.gens) > 2 {
			t.Fatalf("cutoff %d: %d generations for one wedge", c, len(r.gens))
		}
	}
	if len(r.gens) != 1 || len(r.gens[0].counts) != 0 {
		t.Fatalf("idle ring holds %d generations, want one empty one", len(r.gens))
	}
	r.expire(500, retention)
	if r.cutoff != 1000 {
		t.Fatalf("a cutoff moving backwards was applied: cutoff now %d", r.cutoff)
	}
}

func TestTriadKeyCanonical(t *testing.T) {
	a := canonicalTriad("Host", "req", true, "reply", false)
	b := canonicalTriad("Host", "reply", false, "req", true)
	if a != b {
		t.Fatalf("canonical triad keys differ: %v vs %v", a, b)
	}
}

func TestTriadSelfLoop(t *testing.T) {
	g := graph.New(graph.WithAutoVertices())
	s := NewSummary(WithTriadSampling(1))
	observe(s, g, flowEdge(1, 1, 2, "flow", "Host", "Host", 1))
	// The self loop should only scan vertex 1 once.
	observe(s, g, flowEdge(2, 1, 1, "beacon", "Host", "Host", 2))
	if n := s.TriadFrequency(canonicalTriad("Host", "beacon", true, "flow", true)); n != 1 {
		t.Fatalf("self-loop wedge counted %d times, want 1", n)
	}
}

// wedgeCounts counts, by signature, the wedges among edges: pairs of
// distinct edges sharing a vertex, once per shared vertex, among the pairs
// keep admits (earlier edge first). The streams here have no self loops.
func wedgeCounts(edges []graph.StreamEdge, typeOf func(graph.VertexID) string, keep func(earlier, later *graph.Edge) bool) map[TriadKey]uint64 {
	out := make(map[TriadKey]uint64)
	for j := range edges {
		l := &edges[j].Edge
		for i := range j {
			e := &edges[i].Edge
			if !keep(e, l) {
				continue
			}
			for _, v := range [2]graph.VertexID{l.Source, l.Target} {
				if e.Source == v || e.Target == v {
					out[canonicalTriad(typeOf(v), l.Type, l.Source == v, e.Type, e.Source == v)]++
				}
			}
		}
	}
	return out
}

// TestTriadRingExpiresWithWindow streams ~22 retentions of random edges with
// every wedge counted (sampling 1) and the window's cutoff applied after
// each edge. Every triad count must stay at or above the wedges the window
// graph holds — an expiry never loses a live wedge — and at or below the
// wedges whose later edge arrived in the last 1⅛ retentions (to within one
// arrival gap, the granularity at which generations are sealed). With
// retention 0 nothing may be evicted.
func TestTriadRingExpiresWithWindow(t *testing.T) {
	const (
		retention = 200 * time.Millisecond
		maxGap    = 10 * time.Millisecond
		vertices  = 15
	)
	rng := rand.New(rand.NewSource(7))
	typeOf := func(v graph.VertexID) string { return []string{"Host", "Server"}[v%2] }
	edgeTypes := []string{"flow", "dns", "login"}
	ts := graph.Timestamp(time.Second)
	var stream []graph.StreamEdge
	for i := 0; i < 800; i++ {
		ts += graph.Timestamp(1 + rng.Int63n(int64(maxGap)))
		src := graph.VertexID(rng.Intn(vertices))
		dst := (src + 1 + graph.VertexID(rng.Intn(vertices-1))) % vertices
		stream = append(stream, flowEdge(graph.EdgeID(i+1), src, dst, edgeTypes[rng.Intn(len(edgeTypes))], typeOf(src), typeOf(dst), ts))
	}

	for _, window := range []time.Duration{retention, 0} {
		dyn := graph.NewDynamic(window)
		s := NewSummary(WithTriadSampling(1))
		for n, se := range stream {
			if _, err := dyn.Apply(se); err != nil {
				t.Fatal(err)
			}
			s.Observe(se, dyn.Graph())
			cutoff := dyn.Cutoff()
			if window == 0 {
				// A moving bound must not evict anything without a retention.
				cutoff = se.Edge.Timestamp
			}
			s.Expire(cutoff, window)
			if n%20 != 19 {
				continue
			}
			seen := stream[:n+1]
			live := wedgeCounts(seen, typeOf, func(e, l *graph.Edge) bool {
				return window == 0 || e.Timestamp >= cutoff && l.Timestamp >= cutoff
			})
			recent := wedgeCounts(seen, typeOf, func(e, l *graph.Edge) bool {
				// e was still in the window when l arrived, and l arrived
				// in the last 1⅛ retentions.
				return window == 0 || e.Timestamp >= l.Timestamp-graph.Timestamp(window) &&
					l.Timestamp >= cutoff-graph.Timestamp(window/sealsPerRetention+maxGap)
			})
			for key, want := range live {
				if got := s.TriadFrequency(key); got < want {
					t.Fatalf("window %s, edge %d: %v counted %d times, but the window holds %d", window, n, key, got, want)
				}
			}
			for _, gen := range s.triads.gens {
				for key := range gen.counts {
					if got, most := s.TriadFrequency(key), recent[key]; got > most {
						t.Fatalf("window %s, edge %d: %v counted %d times, more than the %d arrived in the last 1⅛ retentions", window, n, key, got, most)
					}
				}
			}
		}
		var total, everAll uint64
		for _, c := range wedgeCounts(stream, typeOf, func(e, l *graph.Edge) bool {
			return window == 0 || e.Timestamp >= l.Timestamp-graph.Timestamp(window)
		}) {
			everAll += c
		}
		for _, gen := range s.triads.gens {
			for _, c := range gen.counts {
				total += c
			}
		}
		switch {
		case window == 0 && total != everAll:
			t.Errorf("retention 0: %d wedges kept of %d counted", total, everAll)
		case window > 0 && 4*total > everAll:
			t.Errorf("retention %s: %d wedges kept of %d counted over ~22 retentions", window, total, everAll)
		}
	}
}
