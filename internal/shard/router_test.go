package shard

import (
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

func starQuery() *query.Graph {
	// "center" touches every edge: hub query, endpoint routing suffices.
	return query.NewBuilder("star").
		Window(time.Minute).
		Vertex("center", "Host").
		Vertex("a", "Host").
		Vertex("b", "Host").
		Edge("a", "center", "flow").
		Edge("center", "b", "dns").
		MustBuild()
}

func rectangleQuery() *query.Graph {
	// Two articles joined through a keyword and a location: no vertex
	// touches all four edges.
	return query.NewBuilder("rectangle").
		Window(time.Minute).
		Vertex("a1", "Article").
		Vertex("a2", "Article").
		Vertex("k", "Keyword").
		Vertex("l", "Location").
		Edge("a1", "k", "mentions").
		Edge("a2", "k", "mentions").
		Edge("a1", "l", "located_in").
		Edge("a2", "l", "located_in").
		MustBuild()
}

func TestHubOf(t *testing.T) {
	star := starQuery()
	if hub := hubOf(star); hub == noHub || star.Vertex(hub).Name != "center" {
		t.Fatalf("star query hub = %d, want center", hub)
	}
	if hub := hubOf(rectangleQuery()); hub != noHub {
		t.Fatalf("rectangle query must be hub-free, got hub %d", hub)
	}
}

func TestRouterEndpointRouting(t *testing.T) {
	r := newRouter(4)
	r.add("star", starQuery())
	se := graph.StreamEdge{Edge: graph.Edge{Source: 10, Target: 20, Type: "flow"}}
	dests := r.route(se)
	if len(dests) == 0 || len(dests) > 2 {
		t.Fatalf("endpoint routing produced %v", dests)
	}
	want := map[int]bool{ownerOf(10, 4): true, ownerOf(20, 4): true}
	for _, d := range dests {
		if !want[d] {
			t.Fatalf("edge routed to non-owner shard %d (%v)", d, dests)
		}
	}
	// Both endpoints on the same shard: exactly one delivery.
	same := graph.StreamEdge{Edge: graph.Edge{Source: 10, Target: 10, Type: "flow"}}
	if got := r.route(same); len(got) != 1 {
		t.Fatalf("same-owner edge routed to %v", got)
	}
}

// requireDests checks that route sent se to exactly the shards in want.
func requireDests(t *testing.T, r *router, se graph.StreamEdge, want ...int) {
	t.Helper()
	got := r.route(se)
	if !sameSet(got, want) {
		t.Fatalf("edge %d→%d (%q) routed to %v, want %v", se.Edge.Source, se.Edge.Target, se.Edge.Type, got, want)
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// ownersOf returns the distinct owners of v among shards, plus shard 0 when
// home is set: the destinations the router must pick.
func ownersOf(shards int, home bool, vs ...graph.VertexID) []int {
	var d []int
	for _, v := range vs {
		if o := ownerOf(v, shards); !slices.Contains(d, o) {
			d = append(d, o)
		}
	}
	if home && !slices.Contains(d, 0) {
		d = append(d, 0)
	}
	return d
}

// TestRouterSendsHubFreeTypesHome: an edge of a type a hub-free query
// constrains goes to its endpoint owners and to shard 0, the query's only
// home, and no further.
func TestRouterSendsHubFreeTypesHome(t *testing.T) {
	r := newRouter(4)
	r.add("star", starQuery())
	r.add("rectangle", rectangleQuery())
	sawThree := false
	for v := graph.VertexID(0); v < 64; v++ {
		mention := graph.StreamEdge{Edge: graph.Edge{Source: v, Target: v + 1, Type: "mentions"}}
		requireDests(t, r, mention, ownersOf(4, true, v, v+1)...)
		sawThree = sawThree || len(r.route(mention)) == 3
		// Types the hub-free query does not constrain use endpoint routing.
		flow := graph.StreamEdge{Edge: graph.Edge{Source: v, Target: v + 1, Type: "flow"}}
		requireDests(t, r, flow, ownersOf(4, false, v, v+1)...)
	}
	if !sawThree {
		t.Fatalf("no mention edge had two endpoint owners besides shard 0")
	}
	// Unregistering the hub-free query reverts to endpoint routing.
	r.remove("rectangle")
	for v := graph.VertexID(0); v < 64; v++ {
		mention := graph.StreamEdge{Edge: graph.Edge{Source: v, Target: v + 1, Type: "mentions"}}
		requireDests(t, r, mention, ownersOf(4, false, v, v+1)...)
	}
}

// TestRouterWildcardEdgeSendsEverythingHome: a hub-free query with an
// untyped pattern edge needs every edge on shard 0, besides the endpoint
// owners.
func TestRouterWildcardEdgeSendsEverythingHome(t *testing.T) {
	r := newRouter(3)
	wild := query.NewBuilder("wild").
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "Host").
		Edge("a", "b", "flow").
		Edge("b", "c", "flow").
		Edge("c", "a", ""). // wildcard closes the triangle: hub-free
		MustBuild()
	r.add(wild.Name(), wild)
	for v := graph.VertexID(0); v < 32; v++ {
		se := graph.StreamEdge{Edge: graph.Edge{Source: v, Target: v + 1, Type: "anything"}}
		requireDests(t, r, se, ownersOf(3, true, v, v+1)...)
	}
	r.remove("wild")
	for v := graph.VertexID(0); v < 32; v++ {
		se := graph.StreamEdge{Edge: graph.Edge{Source: v, Target: v + 1, Type: "anything"}}
		requireDests(t, r, se, ownersOf(3, false, v, v+1)...)
	}
}

func TestOwnerOfIsStableAndBalanced(t *testing.T) {
	counts := make([]int, 4)
	for v := graph.VertexID(0); v < 4000; v++ {
		o := ownerOf(v, 4)
		if o != ownerOf(v, 4) {
			t.Fatalf("ownerOf not deterministic")
		}
		counts[o]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("shard %d owns %d of 4000 sequential IDs: unbalanced %v", i, c, counts)
		}
	}
}
