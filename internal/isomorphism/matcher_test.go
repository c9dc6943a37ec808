package isomorphism

import (
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// buildDataGraph constructs a small multi-relational graph:
//
//	article1 -mentions-> kw "politics"
//	article1 -located-> loc "NYC"
//	article2 -mentions-> kw "politics"
//	article2 -located-> loc "NYC"
//	article3 -mentions-> kw "sports"
//	host1 -icmp_echo_req-> host2, host2 -icmp_echo_reply-> host3
func buildDataGraph(t *testing.T) *graph.Graph {
	t.Helper()
	vertices := append([]graph.Vertex{
		{ID: 1, Type: "Article"},
		{ID: 2, Type: "Article"},
		{ID: 3, Type: "Article"},
		{ID: 10, Type: "Keyword", Attrs: graph.Attributes{"label": graph.String("politics")}},
		{ID: 11, Type: "Keyword", Attrs: graph.Attributes{"label": graph.String("sports")}},
		{ID: 20, Type: "Location", Attrs: graph.Attributes{"name": graph.String("NYC")}},
	}, hosts(30, 31, 32)...)
	return windowOf(t, vertices,
		graph.Edge{ID: 100, Source: 1, Target: 10, Type: "mentions", Timestamp: 10},
		graph.Edge{ID: 101, Source: 1, Target: 20, Type: "located", Timestamp: 11},
		graph.Edge{ID: 102, Source: 2, Target: 10, Type: "mentions", Timestamp: 12},
		graph.Edge{ID: 103, Source: 2, Target: 20, Type: "located", Timestamp: 13},
		graph.Edge{ID: 104, Source: 3, Target: 11, Type: "mentions", Timestamp: 14},
		graph.Edge{ID: 200, Source: 30, Target: 31, Type: "icmp_echo_req", Timestamp: 20},
		graph.Edge{ID: 201, Source: 31, Target: 32, Type: "icmp_echo_reply", Timestamp: 21},
	)
}

// windowOf applies edges, in order, to an unbounded window and returns its
// graph. Each endpoint takes the type and attributes of its entry in
// vertices; an endpoint not listed there is untyped.
func windowOf(t *testing.T, vertices []graph.Vertex, edges ...graph.Edge) *graph.Graph {
	t.Helper()
	byID := make(map[graph.VertexID]graph.Vertex, len(vertices))
	for _, v := range vertices {
		byID[v.ID] = v
	}
	d := graph.NewDynamic(0)
	for _, e := range edges {
		src, dst := byID[e.Source], byID[e.Target]
		se := graph.StreamEdge{Edge: e, SourceType: src.Type, TargetType: dst.Type, SourceAttrs: src.Attrs, TargetAttrs: dst.Attrs}
		if _, err := d.Apply(se); err != nil {
			t.Fatal(err)
		}
	}
	return d.Graph()
}

// hosts returns vertices of type Host with the given IDs.
func hosts(ids ...graph.VertexID) []graph.Vertex {
	vs := make([]graph.Vertex, len(ids))
	for i, id := range ids {
		vs[i] = graph.Vertex{ID: id, Type: "Host"}
	}
	return vs
}

func articlePairQuery(t *testing.T) *query.Graph {
	t.Helper()
	return query.NewBuilder("pair").
		Vertex("a1", "Article").
		Vertex("a2", "Article").
		Vertex("k", "Keyword").
		Edge("a1", "k", "mentions").
		Edge("a2", "k", "mentions").
		MustBuild()
}

func TestFindAllSingleEdge(t *testing.T) {
	g := buildDataGraph(t)
	q := query.NewBuilder("m").
		Vertex("a", "Article").Vertex("k", "Keyword").
		Edge("a", "k", "mentions").
		MustBuild()
	ms := New(q).FindAll(g, q.EdgeIDs(), 0)
	if len(ms) != 3 {
		t.Fatalf("expected 3 mentions matches, got %d", len(ms))
	}
	for _, m := range ms {
		if !m.Complete(q) {
			t.Fatalf("incomplete match returned: %v", m)
		}
	}
}

func TestFindAllTwoArticlesSameKeyword(t *testing.T) {
	g := buildDataGraph(t)
	q := articlePairQuery(t)
	ms := New(q).FindAll(g, q.EdgeIDs(), 0)
	// Articles 1 and 2 both mention keyword 10; the two orderings (a1=1,a2=2)
	// and (a1=2,a2=1) are distinct isomorphisms.
	if len(ms) != 2 {
		t.Fatalf("expected 2 matches, got %d: %v", len(ms), ms)
	}
	for _, m := range ms {
		v1, _ := m.Vertex(0)
		v2, _ := m.Vertex(1)
		if v1 == v2 {
			t.Fatalf("injectivity violated: %v", m)
		}
	}
}

func TestFindAllRespectsVertexPredicates(t *testing.T) {
	g := buildDataGraph(t)
	q := query.NewBuilder("sports").
		Vertex("a", "Article").
		Vertex("k", "Keyword", query.Eq("label", graph.String("sports"))).
		Edge("a", "k", "mentions").
		MustBuild()
	ms := New(q).FindAll(g, q.EdgeIDs(), 0)
	if len(ms) != 1 {
		t.Fatalf("expected 1 sports mention, got %d", len(ms))
	}
	k, _ := ms[0].Vertex(1)
	if k != 11 {
		t.Fatalf("wrong keyword bound: %v", ms[0])
	}
}

func TestFindAllRespectsEdgeTypeAndLimit(t *testing.T) {
	g := buildDataGraph(t)
	q := query.NewBuilder("any").
		Vertex("x", "").Vertex("y", "").
		Edge("x", "y", "").
		MustBuild()
	all := New(q).FindAll(g, q.EdgeIDs(), 0)
	if len(all) != 7 {
		t.Fatalf("untyped single-edge query should match all 7 edges, got %d", len(all))
	}
	limited := New(q).FindAll(g, q.EdgeIDs(), 3)
	if len(limited) != 3 {
		t.Fatalf("limit not respected: %d", len(limited))
	}
}

func TestFindAllPathQuery(t *testing.T) {
	g := buildDataGraph(t)
	q := query.NewBuilder("smurfish").
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		Edge("a", "b", "icmp_echo_req").
		Edge("b", "c", "icmp_echo_reply").
		MustBuild()
	ms := New(q).FindAll(g, q.EdgeIDs(), 0)
	if len(ms) != 1 {
		t.Fatalf("expected exactly one request/reply path, got %d", len(ms))
	}
	a, _ := ms[0].Vertex(0)
	b, _ := ms[0].Vertex(1)
	c, _ := ms[0].Vertex(2)
	if a != 30 || b != 31 || c != 32 {
		t.Fatalf("wrong binding: %v", ms[0])
	}
	if ms[0].Span.Start != 20 || ms[0].Span.End != 21 {
		t.Fatalf("span wrong: %v", ms[0].Span)
	}
}

func TestFindAllUndirectedEdge(t *testing.T) {
	g := buildDataGraph(t)
	q := query.NewBuilder("undirected").
		Vertex("k", "Keyword").Vertex("a", "Article").
		UndirectedEdge("k", "a", "mentions").
		MustBuild()
	ms := New(q).FindAll(g, q.EdgeIDs(), 0)
	if len(ms) != 3 {
		t.Fatalf("undirected single-edge query should match 3 edges, got %d", len(ms))
	}
	for _, m := range ms {
		k, _ := m.Vertex(0)
		if kv, _ := g.Vertex(k); kv.Type != "Keyword" {
			t.Fatalf("keyword variable bound to %v", kv)
		}
	}
}

func TestFindAllNoMatchesWrongTypes(t *testing.T) {
	g := buildDataGraph(t)
	q := query.NewBuilder("none").
		Vertex("a", "Person").Vertex("b", "Person").
		Edge("a", "b", "knows").
		MustBuild()
	if ms := New(q).FindAll(g, q.EdgeIDs(), 0); len(ms) != 0 {
		t.Fatalf("expected no matches, got %d", len(ms))
	}
}

func TestFindAllEmptyInputs(t *testing.T) {
	q := articlePairQuery(t)
	m := New(q)
	if got := m.FindAll(nil, q.EdgeIDs(), 0); got != nil {
		t.Fatalf("nil graph should produce nil")
	}
	if got := m.FindAll(graph.New(), nil, 0); got != nil {
		t.Fatalf("empty edge set should produce nil")
	}
	if m.Query() != q {
		t.Fatalf("Query() accessor broken")
	}
}

func TestLocalSearchSeededByNewEdge(t *testing.T) {
	g := buildDataGraph(t)
	q := articlePairQuery(t)
	m := New(q)
	// Seed with the data edge article2-mentions->politics matched to pattern
	// edge 0 (a1 -mentions-> k): expect exactly one completion with a2=1.
	seed, _ := g.Edge(102)
	ms := m.LocalSearch(g, q.EdgeIDs(), 0, &seed)
	if len(ms) != 1 {
		t.Fatalf("expected 1 local match, got %d: %v", len(ms), ms)
	}
	a1, _ := ms[0].Vertex(0)
	a2, _ := ms[0].Vertex(1)
	if a1 != 2 || a2 != 1 {
		t.Fatalf("wrong local binding: %v", ms[0])
	}
	if !ms[0].UsesDataEdge(102) {
		t.Fatalf("seed edge not part of the match")
	}
}

func TestLocalSearchSubsetOnly(t *testing.T) {
	g := buildDataGraph(t)
	q := query.NewBuilder("newsFull").
		Vertex("a1", "Article").
		Vertex("a2", "Article").
		Vertex("k", "Keyword").
		Vertex("l", "Location").
		Edge("a1", "k", "mentions").
		Edge("a2", "k", "mentions").
		Edge("a1", "l", "located").
		Edge("a2", "l", "located").
		MustBuild()
	m := New(q)
	// Search only the primitive {edge0} seeded by data edge 100.
	seed, _ := g.Edge(100)
	ms := m.LocalSearch(g, []query.EdgeID{0}, 0, &seed)
	if len(ms) != 1 {
		t.Fatalf("expected 1 primitive match, got %d", len(ms))
	}
	if ms[0].NumEdges() != 1 || ms[0].NumVertices() != 2 {
		t.Fatalf("primitive match has wrong shape: %v", ms[0])
	}
}

func TestLocalSearchSeedMismatch(t *testing.T) {
	g := buildDataGraph(t)
	q := articlePairQuery(t)
	m := New(q)
	// Seeding pattern edge 0 (mentions) with a "located" data edge must fail.
	seed, _ := g.Edge(101)
	if ms := m.LocalSearch(g, q.EdgeIDs(), 0, &seed); len(ms) != 0 {
		t.Fatalf("mismatched seed should produce no matches, got %d", len(ms))
	}
	// Seeding an edge outside the requested subset must fail.
	if ms := m.LocalSearch(g, []query.EdgeID{1}, 0, &seed); ms != nil {
		t.Fatalf("seed edge outside subset should return nil")
	}
	if ms := m.LocalSearch(g, q.EdgeIDs(), 0, nil); ms != nil {
		t.Fatalf("nil seed edge should return nil")
	}
}

func TestLocalSearchUndirectedSeedBothOrientations(t *testing.T) {
	g := windowOf(t, hosts(1, 2), graph.Edge{ID: 1, Source: 1, Target: 2, Type: "peer", Timestamp: 1})
	q := query.NewBuilder("p").
		Vertex("x", "Host").Vertex("y", "Host").
		UndirectedEdge("x", "y", "peer").
		MustBuild()
	seed, _ := g.Edge(1)
	ms := New(q).LocalSearch(g, q.EdgeIDs(), 0, &seed)
	if len(ms) != 2 {
		t.Fatalf("undirected seed should match in both orientations, got %d", len(ms))
	}
}

func TestSelfLoopHandling(t *testing.T) {
	g := windowOf(t, hosts(1, 2),
		graph.Edge{ID: 1, Source: 1, Target: 1, Type: "beacon", Timestamp: 1},
		graph.Edge{ID: 2, Source: 1, Target: 2, Type: "beacon", Timestamp: 2})
	// Self-loop pattern: only the self-loop data edge matches.
	loop := query.NewBuilder("loop").
		Vertex("x", "Host").
		Edge("x", "x", "beacon").
		MustBuild()
	ms := New(loop).FindAll(g, loop.EdgeIDs(), 0)
	if len(ms) != 1 {
		t.Fatalf("self-loop pattern matched %d edges, want 1", len(ms))
	}
	// Non-loop pattern must not match the self-loop edge.
	pair := query.NewBuilder("pair").
		Vertex("x", "Host").Vertex("y", "Host").
		Edge("x", "y", "beacon").
		MustBuild()
	ms = New(pair).FindAll(g, pair.EdgeIDs(), 0)
	if len(ms) != 1 {
		t.Fatalf("two-vertex pattern matched %d edges, want 1 (the non-loop)", len(ms))
	}
}

func TestMultigraphParallelEdges(t *testing.T) {
	var parallel []graph.Edge
	for i := 0; i < 3; i++ {
		parallel = append(parallel, graph.Edge{ID: graph.EdgeID(i), Source: 1, Target: 2, Type: "flow", Timestamp: graph.Timestamp(i)})
	}
	g := windowOf(t, hosts(1, 2), parallel...)
	// Pattern with two parallel flow edges between the same pair: each match
	// must use two distinct data edges (ordered pairs of distinct edges: 3*2).
	q := query.NewBuilder("double").
		Vertex("x", "Host").Vertex("y", "Host").
		Edge("x", "y", "flow").
		Edge("x", "y", "flow").
		MustBuild()
	ms := New(q).FindAll(g, q.EdgeIDs(), 0)
	if len(ms) != 6 {
		t.Fatalf("expected 6 ordered pairs of distinct parallel edges, got %d", len(ms))
	}
	for _, m := range ms {
		e0, _ := m.Edge(0)
		e1, _ := m.Edge(1)
		if e0 == e1 {
			t.Fatalf("data edge reused for two pattern edges: %v", m)
		}
	}
}

func TestFindAllEdgePredicates(t *testing.T) {
	g := windowOf(t, hosts(1, 2),
		graph.Edge{ID: 1, Source: 1, Target: 2, Type: "flow", Timestamp: 1,
			Attrs: graph.Attributes{"bytes": graph.Int(100)}},
		graph.Edge{ID: 2, Source: 1, Target: 2, Type: "flow", Timestamp: 2,
			Attrs: graph.Attributes{"bytes": graph.Int(9000)}})
	q := query.NewBuilder("big").
		Vertex("x", "Host").Vertex("y", "Host").
		Edge("x", "y", "flow", query.Gt("bytes", graph.Int(1000))).
		MustBuild()
	ms := New(q).FindAll(g, q.EdgeIDs(), 0)
	if len(ms) != 1 {
		t.Fatalf("edge predicate not applied: %d matches", len(ms))
	}
	e, _ := ms[0].Edge(0)
	if e != 2 {
		t.Fatalf("wrong edge selected: %v", ms[0])
	}
}

// Incremental-vs-offline sanity check on a triangle query: the union of
// local searches seeded by each edge (restricted to matches whose latest
// edge is the seed) equals the offline result set.
func TestLocalSearchCoversOfflineResults(t *testing.T) {
	edges := []graph.Edge{
		{ID: 1, Source: 1, Target: 2, Type: "flow", Timestamp: 1},
		{ID: 2, Source: 2, Target: 3, Type: "flow", Timestamp: 2},
		{ID: 3, Source: 3, Target: 1, Type: "flow", Timestamp: 3},
		{ID: 4, Source: 3, Target: 4, Type: "flow", Timestamp: 4},
		{ID: 5, Source: 4, Target: 2, Type: "flow", Timestamp: 5},
		{ID: 6, Source: 2, Target: 5, Type: "flow", Timestamp: 6},
	}
	g := windowOf(t, hosts(1, 2, 3, 4, 5), edges...)
	q := query.NewBuilder("tri").
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		Edge("a", "b", "flow").Edge("b", "c", "flow").Edge("c", "a", "flow").
		MustBuild()
	m := New(q)
	offline := m.FindAll(g, q.EdgeIDs(), 0)

	found := make(map[string]bool)
	for _, e := range edges {
		de, _ := g.Edge(e.ID)
		for qe := 0; qe < q.NumEdges(); qe++ {
			for _, lm := range m.LocalSearch(g, q.EdgeIDs(), query.EdgeID(qe), &de) {
				found[lm.Signature()] = true
			}
		}
	}
	for _, om := range offline {
		if !found[om.Signature()] {
			t.Fatalf("offline match %v not discoverable by any local search", om)
		}
	}
}

func TestMatchWithinWindowIntegration(t *testing.T) {
	g := buildDataGraph(t)
	q := query.NewBuilder("smurfish").
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		Edge("a", "b", "icmp_echo_req").
		Edge("b", "c", "icmp_echo_reply").
		MustBuild()
	ms := New(q).FindAll(g, q.EdgeIDs(), 0)
	if len(ms) != 1 {
		t.Fatalf("setup failed")
	}
	var m0 *match.Match = ms[0]
	if !m0.WithinWindow(2 * time.Nanosecond) {
		t.Fatalf("span of 1ns should fit a 2ns window")
	}
	if m0.WithinWindow(1 * time.Nanosecond) {
		t.Fatalf("span of 1ns should not fit a 1ns window (strict)")
	}
}

// Closing a cycle filters the source's incidence list in place and binds into
// the match being extended: a triangle closed through an existing edge,
// beside a parallel edge of another type and an edge to a fourth host, costs
// nothing, and the match is left as it was.
func TestExtendClosingEdgeAllocs(t *testing.T) {
	g := windowOf(t, nil,
		graph.Edge{ID: 1, Source: 1, Target: 2, Type: "flow", Timestamp: 1},
		graph.Edge{ID: 2, Source: 2, Target: 3, Type: "flow", Timestamp: 2},
		graph.Edge{ID: 3, Source: 3, Target: 4, Type: "flow", Timestamp: 3},
		graph.Edge{ID: 4, Source: 3, Target: 1, Type: "dns", Timestamp: 4},
		graph.Edge{ID: 5, Source: 3, Target: 1, Type: "flow", Timestamp: 5})
	q := query.NewBuilder("tri").
		Vertex("a", "").Vertex("b", "").Vertex("c", "").
		Edge("a", "b", "flow").Edge("b", "c", "flow").Edge("c", "a", "flow").
		MustBuild()
	m := New(q)
	open := match.NewForQuery(q)
	open.BindVertex(0, 1)
	open.BindVertex(1, 2)
	open.BindVertex(2, 3)
	open.BindEdge(0, 1, 1)
	open.BindEdge(1, 2, 2)
	before := open.Clone()
	var found int
	var closing graph.EdgeID
	yield := func(c *match.Match) bool {
		found++
		closing, _ = c.Edge(2)
		return true
	}
	order := q.EdgeIDs()
	allocbudget.Check(t, "isomorphism.extend/closing edge", func() {
		found = 0
		m.extend(g, open, order, 2, yield)
	})
	if found != 1 || closing != 5 {
		t.Fatalf("closing the triangle gave %d matches, the last through edge %d; want 1 through edge 5", found, closing)
	}
	if !slices.Equal(open.Slots(), before.Slots()) || open.NumEdges() != 2 || open.Span != before.Span || open.EdgeSetHash() != before.EdgeSetHash() {
		t.Fatalf("the search left %v, was %v", open, before)
	}
}

// TestLocalSearchFuncFindsTheSeededOfflineMatches: seeded by data edge de on
// pattern edge qe, the in-place search yields exactly the offline matches
// that bind qe to de — both orientations of an undirected edge, parallel
// edges, a triangle — and stops when yield says so, leaving the match it
// bound into empty either way.
func TestLocalSearchFuncFindsTheSeededOfflineMatches(t *testing.T) {
	var edges []graph.Edge
	for i, e := range [][2]graph.VertexID{{1, 2}, {2, 3}, {3, 1}, {1, 2}, {2, 1}, {3, 4}, {4, 2}} {
		edges = append(edges, graph.Edge{ID: graph.EdgeID(i + 1), Source: e[0], Target: e[1], Type: "flow", Timestamp: graph.Timestamp(10 * (i + 1))})
	}
	g := windowOf(t, hosts(1, 2, 3, 4), edges...)
	q := query.NewBuilder("tri").
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		UndirectedEdge("a", "b", "flow").Edge("b", "c", "flow").Edge("c", "a", "flow").
		MustBuild()
	m := New(q)
	id := func(c *match.Match) string { return c.String() + " " + c.Signature() }
	offline := m.FindAll(g, q.EdgeIDs(), 0)
	cur := match.NewForQuery(q)
	searched := 0
	for eid := graph.EdgeID(1); eid <= 7; eid++ {
		de, _ := g.Edge(eid)
		for _, qe := range q.EdgeIDs() {
			var want, got []string
			for _, om := range offline {
				if e, _ := om.Edge(qe); e == eid {
					want = append(want, id(om))
				}
			}
			order := m.ConnectedOrder(q.EdgeIDs(), qe)
			m.LocalSearchFunc(g, order, &de, cur, func(c *match.Match) bool {
				got = append(got, id(c))
				return true
			})
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("edge %d seeding %d: found %q, offline %q", eid, qe, got, want)
			}
			if cur.NumVertices() != 0 || cur.NumEdges() != 0 || cur.HasSpan() {
				t.Fatalf("edge %d seeding %d: the search left %v bound", eid, qe, cur)
			}
			searched += len(want)
			if len(want) > 1 {
				stops := 0
				m.LocalSearchFunc(g, order, &de, cur, func(*match.Match) bool { stops++; return false })
				if stops != 1 || cur.NumEdges() != 0 {
					t.Fatalf("edge %d seeding %d: %d yields after the first said stop, %v left bound", eid, qe, stops, cur)
				}
			}
		}
	}
	if searched < 10 {
		t.Fatalf("only %d matches found: the graph does not exercise the search", searched)
	}
}
