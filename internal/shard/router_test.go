package shard

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/obs"
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

func TestHasHubVertex(t *testing.T) {
	if !hasHubVertex(starQuery()) {
		t.Fatalf("star query should have a hub vertex")
	}
	if hasHubVertex(rectangleQuery()) {
		t.Fatalf("rectangle query must be hub-free")
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

func TestRouterBroadcastFallbackForHubFreeQueries(t *testing.T) {
	r := newRouter(4)
	r.add("star", starQuery())
	r.add("rectangle", rectangleQuery())
	mention := graph.StreamEdge{Edge: graph.Edge{Source: 1, Target: 2, Type: "mentions"}}
	if got := r.route(mention); len(got) != 4 {
		t.Fatalf("hub-free query type not broadcast: %v", got)
	}
	// Types the hub-free query does not constrain still use endpoint routing.
	flow := graph.StreamEdge{Edge: graph.Edge{Source: 1, Target: 2, Type: "flow"}}
	if got := r.route(flow); len(got) > 2 {
		t.Fatalf("unrelated type broadcast: %v", got)
	}
	// Unregistering the hub-free query reverts to endpoint routing.
	r.remove("rectangle")
	if got := r.route(mention); len(got) > 2 {
		t.Fatalf("broadcast not reverted after unregister: %v", got)
	}
}

func TestRouterWildcardEdgeBroadcastsEverything(t *testing.T) {
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
	se := graph.StreamEdge{Edge: graph.Edge{Source: 5, Target: 9, Type: "anything"}}
	if got := r.route(se); len(got) != 3 {
		t.Fatalf("wildcard hub-free query must broadcast all types: %v", got)
	}
	r.remove("wild")
	if got := r.route(se); len(got) > 2 {
		t.Fatalf("wildcard broadcast not reverted: %v", got)
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

func matchEvent(q string, de graph.EdgeID, ts graph.Timestamp) core.MatchEvent {
	m := match.New()
	m.BindEdge(0, de, ts)
	return core.MatchEvent{Query: q, Match: m, DetectedAt: ts}
}

// dedupEntries refreshes d's size gauges and reads its entry count.
func dedupEntries(d *dedup) int64 {
	d.refresh()
	return d.entries.Value()
}

func TestDedupSuppressesReplicatedMatches(t *testing.T) {
	d := newDedup(time.Minute, 0, obs.NewRegistry())
	ev := matchEvent("q", 1, 100)
	if !d.admit(ev) {
		t.Fatalf("first occurrence rejected")
	}
	if d.admit(ev) {
		t.Fatalf("duplicate admitted")
	}
	// Same edge binding under a different query is a different match.
	if !d.admit(matchEvent("other", 1, 100)) {
		t.Fatalf("distinct query deduplicated")
	}
	snap := d.reg.Snapshot()
	if n := snap.Counter("matches_emitted", ""); n != 2 {
		t.Fatalf("%d matches admitted, want 2", n)
	}
	if snap.Counter("query_matches_emitted", "q") != 1 || snap.Counter("query_matches_emitted", "other") != 1 {
		t.Fatalf("per-query counts = %+v", snap.Counters)
	}
	if entries := dedupEntries(d); entries != 2 || d.bytes.Value() == 0 {
		t.Fatalf("size = %d entries, %d bytes", entries, d.bytes.Value())
	}
}

func TestDedupExpiresWithTheWindow(t *testing.T) {
	const retention = 1000 * time.Nanosecond
	// One match every 100 ns for 30 retentions; minWM(i) is the minimum shard
	// watermark the merger has seen by then.
	run := func(d *dedup, minWM func(i int) graph.Timestamp) {
		for i := 0; i < 300; i++ {
			if !d.admit(matchEvent("q", graph.EdgeID(i+1), graph.Timestamp(i*100))) {
				t.Fatalf("match %d rejected", i)
			}
			d.expire(minWM(i))
		}
	}
	d := newDedup(retention, 0, obs.NewRegistry())
	run(d, func(i int) graph.Timestamp { return graph.Timestamp(i * 100) })
	// The cutoff stands at 29900-1000: the 11 newest matches are live, and
	// the dead ones still held are a fraction of a retention's worth.
	if entries := dedupEntries(d); entries < 11 || entries > 11+4 {
		t.Fatalf("%d entries left after 30 retentions, want the 11 live ones and at most 4 dead", entries)
	}
	for i := 289; i < 300; i++ {
		if d.admit(matchEvent("q", graph.EdgeID(i+1), graph.Timestamp(i*100))) {
			t.Fatalf("live match %d admitted twice", i)
		}
	}
	// A shard watermark far in the past must hold everything back.
	e := newDedup(retention, 0, obs.NewRegistry())
	run(e, func(int) graph.Timestamp { return 0 })
	if entries := dedupEntries(e); entries != 300 {
		t.Fatalf("evicted entries still rediscoverable by a lagging shard: %d of 300 left", entries)
	}
	// Unbounded retention must never evict (matches can always recur).
	u := newDedup(0, 0, obs.NewRegistry())
	run(u, func(int) graph.Timestamp { return 1 << 40 })
	if entries := dedupEntries(u); entries != 300 {
		t.Fatalf("unbounded dedup evicted entries: %d of 300 left", entries)
	}
}
