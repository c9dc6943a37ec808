package graph

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddVertex(Vertex{ID: 1, Type: "Host"})
	g.AddVertex(Vertex{ID: 2, Type: "Host"})
	g.AddVertex(Vertex{ID: 3, Type: "Server"})
	edges := []Edge{
		{ID: 10, Source: 1, Target: 2, Type: "connects", Timestamp: 100},
		{ID: 11, Source: 2, Target: 3, Type: "connects", Timestamp: 200},
		{ID: 12, Source: 3, Target: 1, Type: "serves", Timestamp: 300},
	}
	for _, e := range edges {
		if _, err := g.AddEdge(e); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestGraphAddVertexAndLookup(t *testing.T) {
	g := New()
	v := g.AddVertex(Vertex{ID: 7, Type: "IP", Attrs: Attributes{"addr": String("10.0.0.1")}})
	if v.ID != 7 || v.Type != "IP" {
		t.Fatalf("unexpected vertex %v", v)
	}
	got, ok := g.Vertex(7)
	if !ok || got.Type != "IP" {
		t.Fatalf("Vertex(7) = %v, %v", got, ok)
	}
	if !g.HasVertex(7) || g.HasVertex(8) {
		t.Fatalf("HasVertex misbehaved")
	}
	if g.NumVertices() != 1 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
}

func TestGraphAddVertexMergesAttributes(t *testing.T) {
	g := New()
	g.AddVertex(Vertex{ID: 1, Type: "Host", Attrs: Attributes{"os": String("linux")}})
	g.AddVertex(Vertex{ID: 1, Attrs: Attributes{"ram": Int(64)}})
	v, _ := g.Vertex(1)
	if v.Type != "Host" {
		t.Fatalf("empty type overwrote existing type: %v", v)
	}
	if v.Attrs["os"].Str() != "linux" || v.Attrs["ram"].Int64() != 64 {
		t.Fatalf("attributes not merged: %v", v.Attrs)
	}
}

func TestGraphAddVertexRetype(t *testing.T) {
	g := New()
	g.AddVertex(Vertex{ID: 1, Type: "Host"})
	g.AddVertex(Vertex{ID: 1, Type: "Server"})
	if n := g.CountVerticesOfType("Host"); n != 0 {
		t.Fatalf("stale type index entry: %d", n)
	}
	if n := g.CountVerticesOfType("Server"); n != 1 {
		t.Fatalf("missing type index entry: %d", n)
	}
}

func TestGraphAddEdgeRequiresEndpoints(t *testing.T) {
	g := New()
	_, err := g.AddEdge(Edge{ID: 1, Source: 1, Target: 2, Type: "x"})
	if !errors.Is(err, ErrDanglingEdge) {
		t.Fatalf("expected ErrDanglingEdge, got %v", err)
	}
	auto := New(WithAutoVertices())
	if _, err := auto.AddEdge(Edge{ID: 1, Source: 1, Target: 2, Type: "x"}); err != nil {
		t.Fatalf("auto-vertex graph rejected edge: %v", err)
	}
	if auto.NumVertices() != 2 {
		t.Fatalf("endpoints not auto-created")
	}
}

func TestGraphDuplicateEdgeRejected(t *testing.T) {
	g := buildTriangle(t)
	_, err := g.AddEdge(Edge{ID: 10, Source: 1, Target: 2, Type: "connects"})
	if !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("expected ErrDuplicateEdge, got %v", err)
	}
}

func TestGraphAdjacency(t *testing.T) {
	g := buildTriangle(t)
	if out := edgeIDs(g.OutEdges(1)); !slices.Equal(out, []EdgeID{10}) {
		t.Fatalf("OutEdges(1) = %v", out)
	}
	if in := edgeIDs(g.InEdges(1)); !slices.Equal(in, []EdgeID{12}) {
		t.Fatalf("InEdges(1) = %v", in)
	}
}

func TestGraphTypeIndexes(t *testing.T) {
	g := buildTriangle(t)
	if g.CountVerticesOfType("Host") != 2 || g.CountVerticesOfType("Server") != 1 {
		t.Fatalf("vertex type counts wrong")
	}
	if g.CountEdgesOfType("connects") != 2 || g.CountEdgesOfType("serves") != 1 {
		t.Fatalf("edge type counts wrong")
	}
}

func TestGraphAddStreamEdge(t *testing.T) {
	g := New(WithAutoVertices())
	se := StreamEdge{
		Edge:        Edge{ID: 1, Source: 5, Target: 6, Type: "login", Timestamp: 50},
		SourceType:  "User",
		TargetType:  "Machine",
		SourceAttrs: Attributes{"name": String("alice")},
	}
	if _, err := g.AddStreamEdge(se); err != nil {
		t.Fatalf("AddStreamEdge: %v", err)
	}
	src, _ := g.Vertex(5)
	dst, _ := g.Vertex(6)
	if src.Type != "User" || dst.Type != "Machine" {
		t.Fatalf("endpoint types not applied: %v %v", src, dst)
	}
	if src.Attrs["name"].Str() != "alice" {
		t.Fatalf("endpoint attributes not applied")
	}
}

func TestGraphMultigraphEdges(t *testing.T) {
	g := New(WithAutoVertices())
	for i := 0; i < 5; i++ {
		if _, err := g.AddEdge(Edge{ID: EdgeID(i), Source: 1, Target: 2, Type: "flow", Timestamp: Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if g.OutEdges(1).Len() != 5 || g.InEdges(2).Len() != 5 {
		t.Fatalf("multigraph edges collapsed")
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone sizes differ")
	}
	if _, err := c.AddEdge(Edge{ID: 99, Source: 1, Target: 3, Type: "new"}); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(99) {
		t.Fatalf("mutating the clone affected the original")
	}
}

func TestGraphIterationEarlyStop(t *testing.T) {
	g := buildTriangle(t)
	count := 0
	g.Vertices(func(*Vertex) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("vertex iteration did not stop early: %d", count)
	}
	count = 0
	g.Edges(func(*Edge) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("edge iteration did not stop early: %d", count)
	}
}

func TestGraphIDOrdering(t *testing.T) {
	g := buildTriangle(t)
	eids := g.EdgeIDs()
	for i := 1; i < len(eids); i++ {
		if eids[i-1] >= eids[i] {
			t.Fatalf("EdgeIDs not sorted: %v", eids)
		}
	}
}

// Property: after inserting any set of edges over an auto-vertex graph, the
// sum of all out-degrees and the sum of all in-degrees both equal the number
// of edges.
func TestGraphDegreeSumProperty(t *testing.T) {
	type pair struct{ S, T uint8 }
	f := func(pairs []pair) bool {
		g := New(WithAutoVertices())
		for i, p := range pairs {
			if _, err := g.AddEdge(Edge{ID: EdgeID(i), Source: VertexID(p.S), Target: VertexID(p.T), Type: "e"}); err != nil {
				return false
			}
		}
		var outSum, inSum int
		g.Vertices(func(v *Vertex) bool {
			outSum += g.OutEdges(v.ID).Len()
			inSum += g.InEdges(v.ID).Len()
			return true
		})
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalOperations(t *testing.T) {
	iv := NewInterval(100)
	if iv.Span() != 0 {
		t.Fatalf("singleton interval span = %v", iv.Span())
	}
	iv = iv.Extend(50).Extend(200)
	if iv.Start != 50 || iv.End != 200 {
		t.Fatalf("Extend produced %v", iv)
	}
	u := iv.Union(Interval{Start: 10, End: 120})
	if u.Start != 10 || u.End != 200 {
		t.Fatalf("Union produced %v", u)
	}
	if !iv.Contains(100) || iv.Contains(300) {
		t.Fatalf("Contains wrong")
	}
	if !iv.Within(151) {
		t.Fatalf("interval of span 150 should be within 151")
	}
	if iv.Within(150) {
		t.Fatalf("Within must be strict (span 150 !< 150)")
	}
}

// Property: Union is commutative and Extend never shrinks an interval.
func TestIntervalUnionProperty(t *testing.T) {
	f := func(a, b, c, d int32) bool {
		i1 := NewInterval(Timestamp(a)).Extend(Timestamp(b))
		i2 := NewInterval(Timestamp(c)).Extend(Timestamp(d))
		u1, u2 := i1.Union(i2), i2.Union(i1)
		if u1 != u2 {
			return false
		}
		return u1.Span() >= i1.Span() && u1.Span() >= i2.Span()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeRejectsReservedIDs(t *testing.T) {
	cases := []Edge{
		{ID: ReservedEdgeID, Source: 1, Target: 2, Type: "x", Timestamp: 1},
		{ID: 1, Source: ReservedVertexID, Target: 2, Type: "x", Timestamp: 1},
		{ID: 1, Source: 1, Target: ReservedVertexID, Type: "x", Timestamp: 1},
	}
	for _, e := range cases {
		g := New(WithAutoVertices())
		if _, err := g.AddEdge(e); !errors.Is(err, ErrReservedID) {
			t.Fatalf("AddEdge(%+v) err = %v, want ErrReservedID", e, err)
		}
		if g.NumEdges() != 0 {
			t.Fatalf("reserved-ID edge was stored")
		}
	}
}

// A rejected edge changes nothing: its endpoints are neither added nor
// retyped, so nothing is left behind that no expiry would ever remove.
func TestRejectedStreamEdgeLeavesNoVertex(t *testing.T) {
	d := NewDynamic(10)
	if _, err := d.Apply(streamEdge(1, 1, 2, "flow", 100)); err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	before := g.Mutations()
	rejected := []struct {
		se   StreamEdge
		want error
	}{
		{streamEdge(1, 3, 4, "flow", 101), ErrDuplicateEdge},
		{streamEdge(2, 5, ReservedVertexID, "flow", 101), ErrReservedID},
		{StreamEdge{Edge: Edge{ID: 1, Source: 1, Target: 2, Timestamp: 101}, SourceType: "Server"}, ErrDuplicateEdge},
	}
	for _, r := range rejected {
		if _, err := d.Apply(r.se); !errors.Is(err, r.want) {
			t.Fatalf("Apply(%v) = %v, want %v", r.se, err, r.want)
		}
	}
	if g.Mutations() != before || g.NumVertices() != 2 || g.CountVerticesOfType("Server") != 0 {
		t.Fatalf("rejected edges changed the graph: %v, %d mutations, %d Server vertices",
			g, g.Mutations()-before, g.CountVerticesOfType("Server"))
	}
	d.AdvanceTo(1000)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("after the window passed, %v is left", g)
	}
}
