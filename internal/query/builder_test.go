package query

import (
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

func smurfQuery(t *testing.T) *Graph {
	t.Helper()
	q, err := NewBuilder("smurf").
		Window(10*time.Minute).
		Vertex("attacker", "Host").
		Vertex("amplifier", "Host").
		Vertex("victim", "Host").
		Edge("attacker", "amplifier", "icmp_echo_req").
		Edge("amplifier", "victim", "icmp_echo_reply").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return q
}

func TestBuilderBasic(t *testing.T) {
	q := smurfQuery(t)
	if q.Name() != "smurf" {
		t.Fatalf("Name = %q", q.Name())
	}
	if q.Window() != 10*time.Minute {
		t.Fatalf("Window = %v", q.Window())
	}
	if q.NumVertices() != 3 || q.NumEdges() != 2 {
		t.Fatalf("size = %d vertices, %d edges", q.NumVertices(), q.NumEdges())
	}
	v, ok := q.VertexByName("amplifier")
	if !ok || v.Type != "Host" {
		t.Fatalf("VertexByName failed: %v %v", v, ok)
	}
	if _, ok := q.VertexByName("nope"); ok {
		t.Fatalf("VertexByName found a ghost")
	}
	e := q.Edge(0)
	if e.Type != "icmp_echo_req" || q.Vertex(e.Source).Name != "attacker" {
		t.Fatalf("edge 0 wrong: %v", e)
	}
	if q.Vertex(VertexID(99)) != nil || q.Edge(EdgeID(99)) != nil {
		t.Fatalf("out-of-range lookups must return nil")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x").Vertex("a", "T").Build(); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("expected ErrEmptyQuery, got %v", err)
	}
	_, err := NewBuilder("x").Vertex("a", "T").Vertex("a", "T").Build()
	if !errors.Is(err, ErrDuplicateVertex) {
		t.Fatalf("expected ErrDuplicateVertex, got %v", err)
	}
	_, err = NewBuilder("x").Vertex("a", "T").Edge("a", "ghost", "e").Build()
	if !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("expected ErrUnknownVertex, got %v", err)
	}
	_, err = NewBuilder("x").Window(-1 * time.Second).Build()
	if !errors.Is(err, ErrNegativeWindow) {
		t.Fatalf("expected ErrNegativeWindow, got %v", err)
	}
	// Disconnected: two independent edges.
	_, err = NewBuilder("x").
		Vertex("a", "").Vertex("b", "").Vertex("c", "").Vertex("d", "").
		Edge("a", "b", "e").Edge("c", "d", "e").Build()
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("expected ErrDisconnected, got %v", err)
	}
	// Isolated declared vertex also makes the query disconnected.
	_, err = NewBuilder("x").
		Vertex("a", "").Vertex("b", "").Vertex("lonely", "").
		Edge("a", "b", "e").Build()
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("expected ErrDisconnected for isolated vertex, got %v", err)
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder("x").Vertex("a", "T").Vertex("a", "T")
	// Subsequent calls should not panic or clear the error.
	b.Vertex("b", "T").Edge("a", "b", "e").Window(time.Minute)
	if _, err := b.Build(); !errors.Is(err, ErrDuplicateVertex) {
		t.Fatalf("sticky error lost: %v", err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustBuild should panic on invalid query")
		}
	}()
	NewBuilder("bad").MustBuild()
}

func TestGraphTopologyHelpers(t *testing.T) {
	q := smurfQuery(t)
	eps := q.EndpointsOf([]EdgeID{0})
	if len(eps) != 2 {
		t.Fatalf("EndpointsOf([0]) = %v", eps)
	}
	if !q.SubsetConnected([]EdgeID{0, 1}) {
		t.Fatalf("edges 0,1 share the amplifier and must be connected")
	}
	if q.SubsetConnected(nil) {
		t.Fatalf("empty subset must not be connected")
	}
	if !q.IsConnected() {
		t.Fatalf("smurf query must be connected")
	}
}

// TestEndpointsOfAscending: EndpointsOf collects through a set, and the
// decomposer's cut vertices — hence plan keys and signatures — inherit its
// order, so it must come out sorted whatever order the set is read in.
func TestEndpointsOfAscending(t *testing.T) {
	b := NewBuilder("path12")
	names := "abcdefghijkl"
	for i := range names {
		b.Vertex(names[i:i+1], "")
		if i > 0 {
			b.Edge(names[i-1:i], names[i:i+1], "e")
		}
	}
	q := b.MustBuild()
	for run := 0; run < 10; run++ {
		eps := q.EndpointsOf(q.EdgeIDs())
		if len(eps) != len(names) || !slices.IsSorted(eps) {
			t.Fatalf("EndpointsOf = %v, want %d vertex IDs ascending", eps, len(names))
		}
	}
}

func TestSubsetConnectedDisjoint(t *testing.T) {
	q := NewBuilder("path4").
		Vertex("a", "").Vertex("b", "").Vertex("c", "").Vertex("d", "").
		Edge("a", "b", "e").Edge("b", "c", "e").Edge("c", "d", "e").
		MustBuild()
	if q.SubsetConnected([]EdgeID{0, 2}) {
		t.Fatalf("edges 0 and 2 do not touch and must not be connected")
	}
	if !q.SubsetConnected([]EdgeID{0, 1}) || !q.SubsetConnected([]EdgeID{1, 2}) {
		t.Fatalf("adjacent edge pairs must be connected")
	}
}

func TestVertexMatches(t *testing.T) {
	qv := &Vertex{Name: "a", Type: "Host", Preds: []Predicate{Gt("risk", graph.Int(5))}}
	ok := &graph.Vertex{ID: 1, Type: "Host", Attrs: graph.Attributes{"risk": graph.Int(9)}}
	if !qv.Matches(ok) {
		t.Fatalf("matching vertex rejected")
	}
	wrongType := &graph.Vertex{ID: 2, Type: "Router", Attrs: graph.Attributes{"risk": graph.Int(9)}}
	if qv.Matches(wrongType) {
		t.Fatalf("wrong type accepted")
	}
	failPred := &graph.Vertex{ID: 3, Type: "Host", Attrs: graph.Attributes{"risk": graph.Int(1)}}
	if qv.Matches(failPred) {
		t.Fatalf("failing predicate accepted")
	}
	anyType := &Vertex{Name: "b"}
	if !anyType.Matches(wrongType) {
		t.Fatalf("untyped pattern vertex should match any type")
	}
	if qv.Matches(nil) {
		t.Fatalf("nil data vertex accepted")
	}
}

func TestEdgeMatchesEdge(t *testing.T) {
	qe := &Edge{Type: "flow", Preds: []Predicate{Gt("bytes", graph.Int(100))}}
	ok := &graph.Edge{ID: 1, Type: "flow", Attrs: graph.Attributes{"bytes": graph.Int(500)}}
	if !qe.MatchesEdge(ok) {
		t.Fatalf("matching edge rejected")
	}
	if qe.MatchesEdge(&graph.Edge{ID: 2, Type: "dns"}) {
		t.Fatalf("wrong edge type accepted")
	}
	if qe.MatchesEdge(&graph.Edge{ID: 3, Type: "flow", Attrs: graph.Attributes{"bytes": graph.Int(10)}}) {
		t.Fatalf("failing predicate accepted")
	}
	anyType := &Edge{}
	if !anyType.MatchesEdge(ok) {
		t.Fatalf("untyped pattern edge should match any type")
	}
	if qe.MatchesEdge(nil) {
		t.Fatalf("nil data edge accepted")
	}
}

func TestGraphStringAndAccessorsCopy(t *testing.T) {
	q := smurfQuery(t)
	if q.String() == "" {
		t.Fatalf("String() empty")
	}
	vs := q.Vertices()
	vs[0].Name = "mutated"
	if q.Vertex(0).Name == "mutated" {
		t.Fatalf("Vertices() must return a copy")
	}
	es := q.Edges()
	es[0].Type = "mutated"
	if q.Edge(0).Type == "mutated" {
		t.Fatalf("Edges() must return a copy")
	}
}

// TestVariablesKeyTellsNamingsApart: two graphs share a VariablesKey exactly
// when they name every vertex alike, in ID order, whatever their types,
// edges and names' lengths.
func TestVariablesKeyTellsNamingsApart(t *testing.T) {
	path := func(name string, vars ...string) *Graph {
		b := NewBuilder(name)
		for _, v := range vars {
			b.Vertex(v, "Host")
		}
		for i := 1; i < len(vars); i++ {
			b.Edge(vars[i-1], vars[i], "flow")
		}
		return b.MustBuild()
	}
	same := []*Graph{path("a", "ab", "c"), path("b", "ab", "c"), MustParse("vertex ab : Article\nvertex c\nedge c -[x]- ab")}
	for _, q := range same[1:] {
		if q.VariablesKey() != same[0].VariablesKey() {
			t.Errorf("%v and %v name their vertices alike but their keys differ", same[0], q)
		}
	}
	for _, q := range []*Graph{path("d", "a", "bc"), path("e", "c", "ab"), path("f", "ab", "c", "d")} {
		if q.VariablesKey() == same[0].VariablesKey() {
			t.Errorf("%v and %v name their vertices differently but share a key", same[0], q)
		}
	}
}
