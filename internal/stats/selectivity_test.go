package stats

import (
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// newsSummary builds a summary resembling the paper's news workload: many
// "mentions" edges, few "located" edges, lots of Articles/Keywords and a
// handful of Locations.
func newsSummary() *Summary {
	s := NewSummary()
	d := graph.NewDynamic(0)
	id := graph.EdgeID(0)
	next := func() graph.EdgeID { id++; return id }
	// 80 mentions edges: Article -> Keyword
	for i := 0; i < 80; i++ {
		observe(s, d, graph.StreamEdge{
			Edge:       graph.Edge{ID: next(), Source: graph.VertexID(i), Target: graph.VertexID(1000 + i%20), Type: "mentions"},
			SourceType: "Article", TargetType: "Keyword",
		})
	}
	// 20 located edges: Article -> Location
	for i := 0; i < 20; i++ {
		observe(s, d, graph.StreamEdge{
			Edge:       graph.Edge{ID: next(), Source: graph.VertexID(i), Target: graph.VertexID(2000 + i%3), Type: "located"},
			SourceType: "Article", TargetType: "Location",
		})
	}
	return s
}

func newsQuery() *query.Graph {
	return query.NewBuilder("news").
		Vertex("a1", "Article").
		Vertex("a2", "Article").
		Vertex("k", "Keyword").
		Vertex("l", "Location").
		Edge("a1", "k", "mentions").
		Edge("a2", "k", "mentions").
		Edge("a1", "l", "located").
		Edge("a2", "l", "located").
		MustBuild()
}

func TestEdgeCardinality(t *testing.T) {
	s := newsSummary()
	e := NewEstimator(s)
	q := newsQuery()
	mentions := e.EdgeCardinality(q.Edge(0))
	located := e.EdgeCardinality(q.Edge(2))
	if mentions != 80 {
		t.Fatalf("mentions cardinality = %v, want 80", mentions)
	}
	if located != 20 {
		t.Fatalf("located cardinality = %v, want 20", located)
	}
	if located >= mentions {
		t.Fatalf("located must be more selective than mentions")
	}
}

func TestEdgeCardinalityUntypedAndUndirected(t *testing.T) {
	s := newsSummary()
	e := NewEstimator(s)
	q := query.NewBuilder("any").
		Vertex("x", "").Vertex("y", "").
		UndirectedEdge("x", "y", "").
		MustBuild()
	// 100 edges total, doubled for the undirected pattern.
	if got := e.EdgeCardinality(q.Edge(0)); got != 200 {
		t.Fatalf("undirected untyped cardinality = %v, want 200", got)
	}
}

func TestEdgeCardinalityPredicateDiscount(t *testing.T) {
	s := newsSummary()
	e := NewEstimator(s)
	q := query.NewBuilder("pred").
		Vertex("a", "Article").Vertex("k", "Keyword").
		Edge("a", "k", "mentions", query.Eq("weight", graph.Int(3))).
		MustBuild()
	got := e.EdgeCardinality(q.Edge(0))
	want := 80 * DefaultPredicateSelectivity
	if got != want {
		t.Fatalf("predicate discount wrong: %v want %v", got, want)
	}
}

func TestVertexCardinality(t *testing.T) {
	s := newsSummary()
	e := NewEstimator(s)
	q := newsQuery()
	art, _ := q.VertexByName("a1")
	loc, _ := q.VertexByName("l")
	if e.VertexCardinality(art) != 80 {
		t.Fatalf("article cardinality = %v", e.VertexCardinality(art))
	}
	if e.VertexCardinality(loc) != 3 {
		t.Fatalf("location cardinality = %v", e.VertexCardinality(loc))
	}
	untyped := &query.Vertex{Name: "x"}
	if e.VertexCardinality(untyped) != float64(s.TotalVertices()) {
		t.Fatalf("untyped vertex cardinality should be |V|")
	}
}

func TestSubgraphCardinalityRanksPrimitives(t *testing.T) {
	s := newsSummary()
	e := NewEstimator(s)
	q := newsQuery()
	// Wedge of two mentions (shared keyword) vs wedge of two located
	// (shared location): located-located must be estimated rarer because the
	// located edges are 4x less frequent.
	mentionsWedge := e.SubgraphCardinality(q, []query.EdgeID{0, 1})
	locatedWedge := e.SubgraphCardinality(q, []query.EdgeID{2, 3})
	if locatedWedge >= mentionsWedge {
		t.Fatalf("located wedge (%v) should be rarer than mentions wedge (%v)", locatedWedge, mentionsWedge)
	}
	whole := e.SubgraphCardinality(q, q.EdgeIDs())
	if whole <= 0 {
		t.Fatalf("whole-query estimate must be positive, got %v", whole)
	}
}

func TestSubgraphCardinalityEmptyAndNil(t *testing.T) {
	e := NewEstimator(nil)
	if e.SubgraphCardinality(newsQuery(), []query.EdgeID{0}) != 1 {
		t.Fatalf("nil summary should give neutral estimate")
	}
	s := newsSummary()
	e2 := NewEstimator(s)
	if e2.SubgraphCardinality(nil, nil) != 1 {
		t.Fatalf("empty inputs should give neutral estimate")
	}
}

func TestSelectivityNormalization(t *testing.T) {
	s := newsSummary()
	e := NewEstimator(s)
	q := newsQuery()
	sel := e.Selectivity(q, []query.EdgeID{2})
	if sel <= 0 || sel > 1 {
		t.Fatalf("single-edge selectivity out of range: %v", sel)
	}
	if got := e.Selectivity(q, []query.EdgeID{0}); got != 0.8 {
		t.Fatalf("mentions selectivity = %v, want 0.8", got)
	}
	empty := NewEstimator(NewSummary())
	if empty.Selectivity(q, []query.EdgeID{0}) != 1 {
		t.Fatalf("empty summary should yield selectivity 1")
	}
	if NewEstimator(nil).Selectivity(q, []query.EdgeID{0}) != 1 {
		t.Fatalf("nil summary should yield selectivity 1")
	}
}

func TestWedgeEstimateUsesTriads(t *testing.T) {
	d := graph.NewDynamic(0)
	s := NewSummary()
	apply := func(id graph.EdgeID, src, dst graph.VertexID, typ string) {
		se := graph.StreamEdge{
			Edge:       graph.Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: graph.Timestamp(id)},
			SourceType: "Host", TargetType: "Host",
		}
		observe(s, d, se)
	}
	// Build 5 request/reply wedges through distinct centres and lots of
	// unrelated request edges.
	for i := 0; i < 5; i++ {
		base := graph.VertexID(i * 10)
		apply(graph.EdgeID(i*2+1), base, base+1, "req")
		apply(graph.EdgeID(i*2+2), base+1, base+2, "reply")
	}
	for i := 0; i < 50; i++ {
		apply(graph.EdgeID(1000+i), graph.VertexID(500+i), graph.VertexID(600+i), "req")
	}
	q := query.NewBuilder("wedge").
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		Edge("a", "b", "req").Edge("b", "c", "reply").
		MustBuild()
	e := NewEstimator(s)
	est := e.SubgraphCardinality(q, q.EdgeIDs())
	// The window holds exactly 5 such wedges, so the estimate should be 5, far below the independence estimate
	// (55 req * 5 reply / |Host vertices|).
	if est != 5 {
		t.Fatalf("wedge estimate = %v, want 5 (from triad table)", est)
	}
}

// TestWedgeEstimateSumsUndirectedLegs: an undirected leg matches data edges
// leaving the centre and entering it, so its wedge estimate counts both.
func TestWedgeEstimateSumsUndirectedLegs(t *testing.T) {
	d := graph.NewDynamic(0)
	s := NewSummary()
	for i, e := range [][2]graph.VertexID{{1, 2}, {3, 1}, {4, 1}, {1, 5}} {
		typ := "flow"
		if i == 3 {
			typ = "dns"
		}
		observe(s, d, flowEdge(graph.EdgeID(i+1), e[0], e[1], typ, "Host", "Host", graph.Timestamp(i)))
	}
	// At host 1: flow out (to 2), flow in (from 3 and 4), dns out (to 5).
	q := query.NewBuilder("undirected").
		Vertex("x", "Host").Vertex("c", "Host").Vertex("y", "Host").
		UndirectedEdge("x", "c", "flow").Edge("c", "y", "dns").
		MustBuild()
	if est := NewEstimator(s).SubgraphCardinality(q, q.EdgeIDs()); est != 3 {
		t.Fatalf("undirected wedge estimate = %v, want 3 (1 outgoing + 2 incoming flows, each with the dns)", est)
	}
}

// TestWedgeFallsBackWithoutTriads: a wedge the window holds none of is
// estimated by the independence formula.
func TestWedgeFallsBackWithoutTriads(t *testing.T) {
	s := newsSummary() // no article is located twice
	q := query.NewBuilder("twice").
		Vertex("a", "Article").Vertex("l1", "Location").Vertex("l2", "Location").
		Edge("a", "l1", "located").Edge("a", "l2", "located").
		MustBuild()
	if est := NewEstimator(s).SubgraphCardinality(q, q.EdgeIDs()); est != 20*20/80. {
		t.Fatalf("fallback estimate = %v, want 20 located × 20 located / 80 articles", est)
	}
}

func TestSharedVertexHelper(t *testing.T) {
	q := newsQuery()
	if _, ok := sharedVertex(q.Edge(0), q.Edge(1)); !ok {
		t.Fatalf("edges 0,1 share the keyword vertex")
	}
	// Edges 1 and 2 share no vertex (a2-k vs a1-l).
	if _, ok := sharedVertex(q.Edge(1), q.Edge(2)); ok {
		t.Fatalf("edges 1,2 share no vertex")
	}
	// Two edges sharing both endpoints (parallel edges) are not a wedge.
	p := query.NewBuilder("par").
		Vertex("x", "").Vertex("y", "").
		Edge("x", "y", "a").Edge("x", "y", "b").
		MustBuild()
	if _, ok := sharedVertex(p.Edge(0), p.Edge(1)); ok {
		t.Fatalf("parallel edges must not be treated as a wedge")
	}
}
