package graph

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

// buildTriangle applies three edges among Host 1, Host 2 and Server 3 to an
// unbounded window.
func buildTriangle(t *testing.T) *Dynamic {
	t.Helper()
	d := NewDynamic(0)
	edges := []StreamEdge{
		{Edge: Edge{ID: 10, Source: 1, Target: 2, Type: "connects", Timestamp: 100}, SourceType: "Host", TargetType: "Host"},
		{Edge: Edge{ID: 11, Source: 2, Target: 3, Type: "connects", Timestamp: 200}, SourceType: "Host", TargetType: "Server"},
		{Edge: Edge{ID: 12, Source: 3, Target: 1, Type: "serves", Timestamp: 300}, SourceType: "Server", TargetType: "Host"},
	}
	for _, se := range edges {
		if _, err := d.Apply(se); err != nil {
			t.Fatalf("Apply(%v): %v", se, err)
		}
	}
	return d
}

// apply applies se to d, failing t on an error.
func apply(t *testing.T, d *Dynamic, se StreamEdge) {
	t.Helper()
	if _, err := d.Apply(se); err != nil {
		t.Fatalf("Apply(%v): %v", se, err)
	}
}

func hasVertex(g *Graph, id VertexID) bool {
	_, ok := g.Vertex(id)
	return ok
}

func hasEdge(g *Graph, id EdgeID) bool {
	_, ok := g.Edge(id)
	return ok
}

func TestGraphVertexLookup(t *testing.T) {
	d := NewDynamic(0)
	apply(t, d, StreamEdge{
		Edge:        Edge{ID: 1, Source: 7, Target: 8, Type: "resolves", Timestamp: 1},
		SourceType:  "IP",
		SourceAttrs: Attributes{"addr": String("10.0.0.1")},
	})
	g := d.Graph()
	got, ok := g.Vertex(7)
	if !ok || got.ID != 7 || got.Type != "IP" || got.Attrs["addr"].Str() != "10.0.0.1" {
		t.Fatalf("Vertex(7) = %v, %v", got, ok)
	}
	if got, ok := g.Vertex(8); !ok || got.Type != "" {
		t.Fatalf("untyped endpoint: Vertex(8) = %v, %v", got, ok)
	}
	if hasVertex(g, 9) || g.NumVertices() != 2 {
		t.Fatalf("vertex 9 present %v, NumVertices = %d", hasVertex(g, 9), g.NumVertices())
	}
}

// An endpoint that arrives again without a type keeps its type, and its
// attributes are merged.
func TestApplyMergesEndpointAttributes(t *testing.T) {
	d := NewDynamic(0)
	apply(t, d, StreamEdge{Edge: Edge{ID: 1, Source: 1, Target: 2, Type: "x", Timestamp: 1},
		SourceType: "Host", SourceAttrs: Attributes{"os": String("linux")}})
	apply(t, d, StreamEdge{Edge: Edge{ID: 2, Source: 1, Target: 2, Type: "x", Timestamp: 2},
		SourceAttrs: Attributes{"ram": Int(64)}})
	v, _ := d.Graph().Vertex(1)
	if v.Type != "Host" {
		t.Fatalf("empty type overwrote existing type: %v", v)
	}
	if v.Attrs["os"].Str() != "linux" || v.Attrs["ram"].Int64() != 64 {
		t.Fatalf("attributes not merged: %v", v.Attrs)
	}
}

func TestApplyRetypesEndpoint(t *testing.T) {
	d := NewDynamic(0)
	apply(t, d, StreamEdge{Edge: Edge{ID: 1, Source: 1, Target: 2, Type: "x", Timestamp: 1}, SourceType: "Host"})
	apply(t, d, StreamEdge{Edge: Edge{ID: 2, Source: 2, Target: 1, Type: "x", Timestamp: 2}, TargetType: "Server"})
	g := d.Graph()
	if n := g.CountVerticesOfType("Host"); n != 0 {
		t.Fatalf("stale type index entry: %d", n)
	}
	if n := g.CountVerticesOfType("Server"); n != 1 {
		t.Fatalf("missing type index entry: %d", n)
	}
}

// The graph keeps an endpoint's attribute map by reference and never writes
// into it: a later edge that adds to the vertex's attributes gives it a new
// map, so a source may share one map across many edges.
func TestApplyNeverWritesAnAttributeMap(t *testing.T) {
	shared := Attributes{"os": String("linux")}
	d := NewDynamic(0)
	apply(t, d, StreamEdge{Edge: Edge{ID: 1, Source: 1, Target: 2, Type: "x", Timestamp: 1},
		SourceAttrs: shared, TargetAttrs: shared})
	apply(t, d, StreamEdge{Edge: Edge{ID: 2, Source: 1, Target: 2, Type: "x", Timestamp: 2},
		SourceAttrs: Attributes{"ram": Int(64)}, TargetAttrs: Attributes{"os": String("bsd")}})
	if len(shared) != 1 || shared["os"].Str() != "linux" {
		t.Fatalf("the shared map was written: %v", shared)
	}
	src, _ := d.Graph().Vertex(1)
	dst, _ := d.Graph().Vertex(2)
	if src.Attrs["os"].Str() != "linux" || src.Attrs["ram"].Int64() != 64 || dst.Attrs["os"].Str() != "bsd" {
		t.Fatalf("merged attributes: source %v, target %v", src.Attrs, dst.Attrs)
	}
}

// A vertex leaves with the last edge touching it, type and attributes
// included: arriving again, it is built from the new edge alone, though the
// graph reuses its record.
func TestReturningVertexStartsClean(t *testing.T) {
	d := NewDynamic(10)
	se := streamEdge(1, 1, 2, "flow", 0)
	se.SourceType, se.SourceAttrs = "Server", Attributes{"os": String("linux")}
	apply(t, d, se)
	apply(t, d, streamEdge(2, 2, 3, "flow", 5))
	d.AdvanceTo(12) // cutoff 2: edge 1 expires, and vertex 1 with it
	g := d.Graph()
	if hasVertex(g, 1) || !hasVertex(g, 2) || g.CountVerticesOfType("Server") != 0 {
		t.Fatalf("after edge 1 expired: vertex 1 present %v, vertex 2 present %v, %d Server vertices",
			hasVertex(g, 1), hasVertex(g, 2), g.CountVerticesOfType("Server"))
	}
	apply(t, d, StreamEdge{Edge: Edge{ID: 3, Source: 1, Target: 3, Type: "flow", Timestamp: 13}})
	if v, _ := g.Vertex(1); v.Type != "" || len(v.Attrs) != 0 || g.CountVerticesOfType("Server") != 0 {
		t.Fatalf("returning vertex 1 is %v, with %d Server vertices", v, g.CountVerticesOfType("Server"))
	}
}

func TestGraphDuplicateEdgeRejected(t *testing.T) {
	d := buildTriangle(t)
	_, err := d.Apply(StreamEdge{Edge: Edge{ID: 10, Source: 1, Target: 2, Type: "connects", Timestamp: 400}})
	if !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("expected ErrDuplicateEdge, got %v", err)
	}
	if e, _ := d.Graph().Edge(10); e.Timestamp != 100 || d.NumEdges() != 3 {
		t.Fatalf("the duplicate replaced or joined the stored edge: %v, %d edges", e, d.NumEdges())
	}
}

func TestGraphAdjacency(t *testing.T) {
	g := buildTriangle(t).Graph()
	if out := edgeIDs(g.OutEdges(1)); !slices.Equal(out, []EdgeID{10}) {
		t.Fatalf("OutEdges(1) = %v", out)
	}
	if in := edgeIDs(g.InEdges(1)); !slices.Equal(in, []EdgeID{12}) {
		t.Fatalf("InEdges(1) = %v", in)
	}
}

func TestGraphTypeIndexes(t *testing.T) {
	g := buildTriangle(t).Graph()
	if g.CountVerticesOfType("Host") != 2 || g.CountVerticesOfType("Server") != 1 {
		t.Fatalf("vertex type counts wrong")
	}
	if g.CountEdgesOfType("connects") != 2 || g.CountEdgesOfType("serves") != 1 {
		t.Fatalf("edge type counts wrong")
	}
}

func TestApplyUpsertsEndpoints(t *testing.T) {
	d := NewDynamic(0)
	apply(t, d, StreamEdge{
		Edge:        Edge{ID: 1, Source: 5, Target: 6, Type: "login", Timestamp: 50},
		SourceType:  "User",
		TargetType:  "Machine",
		SourceAttrs: Attributes{"name": String("alice")},
	})
	src, _ := d.Graph().Vertex(5)
	dst, _ := d.Graph().Vertex(6)
	if src.Type != "User" || dst.Type != "Machine" {
		t.Fatalf("endpoint types not applied: %v %v", src, dst)
	}
	if src.Attrs["name"].Str() != "alice" {
		t.Fatalf("endpoint attributes not applied")
	}
}

func TestGraphMultigraphEdges(t *testing.T) {
	d := NewDynamic(0)
	for i := 0; i < 5; i++ {
		apply(t, d, StreamEdge{Edge: Edge{ID: EdgeID(i), Source: 1, Target: 2, Type: "flow", Timestamp: Timestamp(i)}})
	}
	if g := d.Graph(); listLen(g.OutEdges(1)) != 5 || listLen(g.InEdges(2)) != 5 {
		t.Fatalf("multigraph edges collapsed")
	}
}

func TestGraphIterationEarlyStop(t *testing.T) {
	g := buildTriangle(t).Graph()
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

// Property: after applying any set of edges, the sum of all out-degrees and
// the sum of all in-degrees both equal the number of edges.
func TestGraphDegreeSumProperty(t *testing.T) {
	type pair struct{ S, T uint8 }
	f := func(pairs []pair) bool {
		d := NewDynamic(0)
		for i, p := range pairs {
			if _, err := d.Apply(StreamEdge{Edge: Edge{ID: EdgeID(i), Source: VertexID(p.S), Target: VertexID(p.T), Type: "e"}}); err != nil {
				return false
			}
		}
		g := d.Graph()
		var outSum, inSum int
		g.Vertices(func(v *Vertex) bool {
			outSum += listLen(g.OutEdges(v.ID))
			inSum += listLen(g.InEdges(v.ID))
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

func TestApplyRejectsReservedIDs(t *testing.T) {
	cases := []Edge{
		{ID: ReservedEdgeID, Source: 1, Target: 2, Type: "x", Timestamp: 1},
		{ID: 1, Source: ReservedVertexID, Target: 2, Type: "x", Timestamp: 1},
		{ID: 1, Source: 1, Target: ReservedVertexID, Type: "x", Timestamp: 1},
	}
	for _, e := range cases {
		d := NewDynamic(0)
		if _, err := d.Apply(StreamEdge{Edge: e}); !errors.Is(err, ErrReservedID) {
			t.Fatalf("Apply(%+v) err = %v, want ErrReservedID", e, err)
		}
		if d.NumEdges() != 0 || d.NumVertices() != 0 {
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
