package stats

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

func flowEdge(id graph.EdgeID, src, dst graph.VertexID, typ, srcT, dstT string, ts graph.Timestamp) graph.StreamEdge {
	return graph.StreamEdge{
		Edge:       graph.Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: ts},
		SourceType: srcT,
		TargetType: dstT,
	}
}

// observe applies se to d and hands it to s, the way the engine does.
func observe(s *Summary, d *graph.Dynamic, se graph.StreamEdge) {
	if _, err := d.Apply(se); err != nil {
		panic(err)
	}
	s.Observe(se, d.Graph())
}

func TestSummaryTypeCounts(t *testing.T) {
	s := NewSummary()
	if s.TotalEdges() != 0 || s.TotalVertices() != 0 || s.EdgeTypeCount("flow") != 0 {
		t.Fatalf("a summary that has seen no graph must count nothing")
	}
	d := graph.NewDynamic(0)
	observe(s, d, flowEdge(1, 1, 2, "flow", "Host", "Host", 1))
	observe(s, d, flowEdge(2, 1, 3, "flow", "Host", "Server", 2))
	observe(s, d, flowEdge(3, 2, 3, "dns", "Host", "Server", 3))

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
	d := graph.NewDynamic(0)
	// First sighting has no type, second supplies one.
	observe(s, d, flowEdge(1, 1, 2, "flow", "", "Host", 1))
	observe(s, d, flowEdge(2, 1, 3, "flow", "Workstation", "Host", 2))
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
	d := graph.NewDynamic(0)
	if _, err := d.Apply(flowEdge(1, 1, 2, "x", "A", "B", 1)); err != nil {
		t.Fatal(err)
	}
	s := NewSummary()
	observe(s, d, flowEdge(2, 1, 3, "y", "A", "B", 2))
	if s.TotalEdges() != 2 || s.TotalVertices() != 3 {
		t.Fatalf("summary counts %d edges, %d vertices; the graph holds 2, 3", s.TotalEdges(), s.TotalVertices())
	}
	if s.VertexTypeCount("B") != 2 || s.EdgeTypeCount("x") != 1 {
		t.Fatalf("types the graph held before Observe not counted")
	}

	other := graph.NewDynamic(0)
	observe(s, other, flowEdge(3, 7, 8, "z", "C", "C", 3))
	if s.TotalEdges() != 1 || s.EdgeTypeCount("x") != 0 || s.VertexTypeCount("C") != 2 {
		t.Fatalf("summary still reads the previous graph: %d edges, x=%d, C=%d",
			s.TotalEdges(), s.EdgeTypeCount("x"), s.VertexTypeCount("C"))
	}
}

func TestSummaryTriadCollection(t *testing.T) {
	d := graph.NewDynamic(0)
	s := NewSummary()
	// Build a wedge: a -req-> b, b -reply-> c. The second edge forms one
	// triad centred at b.
	observe(s, d, flowEdge(1, 1, 2, "req", "Host", "Host", 1))
	observe(s, d, flowEdge(2, 2, 3, "reply", "Host", "Host", 2))

	key := canonicalTriad("Host", "reply", true, "req", false)
	if got := s.TriadFrequency(key); got != 1 {
		t.Fatalf("req/reply triad centred at Host counted %d times, want 1", got)
	}
}

// TestWithTriadSamplingIsIgnored: counts are exact whatever sampling rate a
// caller still passes; a star of nine "flow" edges out of one hub forms
// C(9, 2) = 36 wedges there.
func TestWithTriadSamplingIsIgnored(t *testing.T) {
	key := canonicalTriad("Hub", "flow", true, "flow", true)
	for _, sampling := range []int{0, 1, 3, 10} {
		s := NewSummary(WithTriadSampling(sampling))
		d := graph.NewDynamic(0)
		for i := 1; i <= 9; i++ {
			observe(s, d, flowEdge(graph.EdgeID(i), 0, graph.VertexID(i), "flow", "Hub", "Leaf", graph.Timestamp(i)))
		}
		if got := s.TriadFrequency(key); got != 36 {
			t.Errorf("sampling %d: %d hub wedges counted, want 36", sampling, got)
		}
	}
}

func TestTriadKeyCanonical(t *testing.T) {
	a := canonicalTriad("Host", "req", true, "reply", false)
	b := canonicalTriad("Host", "reply", false, "req", true)
	if a != b {
		t.Fatalf("canonical triad keys differ: %v vs %v", a, b)
	}
}

// TestTriadSelfLoop: a self-loop has an outgoing and an incoming end at its
// vertex, each pairing with every other edge's ends there, never with each
// other; two self-loops pair all four ways.
func TestTriadSelfLoop(t *testing.T) {
	d := graph.NewDynamic(0)
	s := NewSummary()
	observe(s, d, flowEdge(1, 1, 2, "flow", "Host", "Host", 1))
	observe(s, d, flowEdge(2, 1, 1, "beacon", "Host", "Host", 2))
	for _, tc := range []struct {
		key  TriadKey
		want uint64
	}{
		{canonicalTriad("Host", "beacon", true, "flow", true), 1},
		{canonicalTriad("Host", "beacon", false, "flow", true), 1},
		{canonicalTriad("Host", "beacon", true, "beacon", false), 0},
	} {
		if got := s.TriadFrequency(tc.key); got != tc.want {
			t.Errorf("one loop: %v counted %d times, want %d", tc.key, got, tc.want)
		}
	}
	observe(s, d, flowEdge(3, 1, 1, "beacon", "Host", "Host", 3))
	for _, tc := range []struct {
		key  TriadKey
		want uint64
	}{
		{canonicalTriad("Host", "beacon", true, "beacon", true), 1},
		{canonicalTriad("Host", "beacon", false, "beacon", false), 1},
		{canonicalTriad("Host", "beacon", true, "beacon", false), 2},
		{canonicalTriad("Host", "beacon", true, "flow", true), 2},
	} {
		if got := s.TriadFrequency(tc.key); got != tc.want {
			t.Errorf("two loops: %v counted %d times, want %d", tc.key, got, tc.want)
		}
	}
}

// wedgeCounts counts, by signature, the wedges among edges by enumeration:
// every unordered pair of ends at one vertex of two distinct edges, where
// an edge's ends are its source (outgoing) and its target (incoming) — both
// at the same vertex for a self-loop.
func wedgeCounts(edges []*graph.Edge, typeOf func(graph.VertexID) string) map[TriadKey]uint64 {
	type end struct {
		v   graph.VertexID
		out bool
	}
	ends := func(e *graph.Edge) [2]end { return [2]end{{e.Source, true}, {e.Target, false}} }
	out := make(map[TriadKey]uint64)
	for j, l := range edges {
		for _, e := range edges[:j] {
			for _, le := range ends(l) {
				for _, ee := range ends(e) {
					if le.v == ee.v {
						out[canonicalTriad(typeOf(le.v), l.Type, le.out, e.Type, ee.out)]++
					}
				}
			}
		}
	}
	return out
}

// TestTriadFrequencyIsExact streams random edges over a few vertices —
// parallel edges, self-loops and vertices whose type changes included —
// through a window, then lets the window drain by AdvanceTo alone. Every
// few steps the triad table must equal brute-force enumeration over the
// edges the window holds, key for key, with retention 0 (nothing expires)
// and > 0.
func TestTriadFrequencyIsExact(t *testing.T) {
	const (
		retention = 200 * time.Millisecond
		vertices  = 8
	)
	rng := rand.New(rand.NewSource(7))
	vertexTypes := []string{"Host", "Server", ""} // "" keeps the vertex's type
	edgeTypes := []string{"flow", "dns", "login"}
	ts := graph.Timestamp(time.Second)
	var stream []graph.StreamEdge
	for i := 0; i < 600; i++ {
		ts += graph.Timestamp(1 + rng.Int63n(int64(10*time.Millisecond)))
		src, dst := graph.VertexID(rng.Intn(vertices)), graph.VertexID(rng.Intn(vertices))
		stream = append(stream, flowEdge(graph.EdgeID(i+1), src, dst, edgeTypes[rng.Intn(len(edgeTypes))],
			vertexTypes[rng.Intn(len(vertexTypes))], vertexTypes[rng.Intn(len(vertexTypes))], ts))
	}

	for _, window := range []time.Duration{retention, 0} {
		dyn := graph.NewDynamic(window)
		s := NewSummary()
		check := func(step string) {
			t.Helper()
			var live []*graph.Edge
			dyn.Graph().Edges(func(e *graph.Edge) bool { c := *e; live = append(live, &c); return true })
			want := wedgeCounts(live, func(v graph.VertexID) string {
				vx, _ := dyn.Graph().Vertex(v)
				return vx.Type
			})
			s.TriadFrequency(TriadKey{}) // brings the table up to date
			for key, n := range want {
				if got := s.TriadFrequency(key); got != n {
					t.Fatalf("window %s, %s: %v counted %d times, the window holds %d", window, step, key, got, n)
				}
			}
			for key, got := range s.triads.counts {
				if want[key] != got {
					t.Fatalf("window %s, %s: %v counted %d times, the window holds %d", window, step, key, got, want[key])
				}
			}
		}
		for n, se := range stream {
			if _, err := dyn.Apply(se); err != nil {
				t.Fatal(err)
			}
			s.Observe(se, dyn.Graph())
			if n%15 == 14 {
				check(fmt.Sprintf("edge %d", n))
			}
		}
		if window == 0 && dyn.NumEdges() != len(stream) {
			t.Fatalf("retention 0 expired %d edges", len(stream)-dyn.NumEdges())
		}
		for step := 1; step <= 5; step++ {
			dyn.AdvanceTo(ts + graph.Timestamp(step)*graph.Timestamp(retention/4))
			check(fmt.Sprintf("advance %d", step))
		}
		if window > 0 && (dyn.NumEdges() != 0 || len(s.triads.counts) != 0) {
			t.Fatalf("drained window holds %d edges, %d triad keys", dyn.NumEdges(), len(s.triads.counts))
		}
	}
}

// TestSummaryAllocs: observing an edge and reading a triad count of an
// unchanged window allocate nothing.
func TestSummaryAllocs(t *testing.T) {
	d := graph.NewDynamic(0)
	s := NewSummary()
	se := flowEdge(1, 1, 2, "req", "Host", "Host", 1)
	observe(s, d, se)
	observe(s, d, flowEdge(2, 2, 3, "reply", "Host", "Host", 2))
	allocbudget.Check(t, "stats.Summary.Observe", func() { s.Observe(se, d.Graph()) })
	key := canonicalTriad("Host", "reply", true, "req", false)
	allocbudget.Check(t, "stats.Summary.TriadFrequency/unchanged window", func() {
		if s.TriadFrequency(key) != 1 {
			t.Fatal("wedge not counted")
		}
	})
}
