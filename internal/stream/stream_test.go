package stream

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
)

func makeEdges(n int, startTS graph.Timestamp, step graph.Timestamp) []graph.StreamEdge {
	out := make([]graph.StreamEdge, n)
	for i := range out {
		out[i] = graph.StreamEdge{
			Edge: graph.Edge{
				ID:        graph.EdgeID(i + 1),
				Source:    graph.VertexID(i),
				Target:    graph.VertexID(i + 1),
				Type:      "flow",
				Timestamp: startTS + graph.Timestamp(i)*step,
			},
			SourceType: "Host",
			TargetType: "Host",
		}
	}
	return out
}

func TestSortAndMerge(t *testing.T) {
	a := makeEdges(3, 100, 10) // ts 100,110,120
	b := makeEdges(3, 95, 10)  // ts 95,105,115
	merged := Merge(a, nil, b) // an empty stream must be harmless
	if len(merged) != 6 {
		t.Fatalf("merged length %d", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Edge.Timestamp > merged[i].Edge.Timestamp {
			t.Fatalf("merge not time ordered: %v", merged)
		}
	}
	// Stable: equal timestamps keep original relative order.
	c := []graph.StreamEdge{
		{Edge: graph.Edge{ID: 1, Timestamp: 5}},
		{Edge: graph.Edge{ID: 2, Timestamp: 5}},
	}
	SortByTimestamp(c)
	if c[0].Edge.ID != 1 {
		t.Fatalf("sort not stable")
	}
}

func TestMergeStableTies(t *testing.T) {
	a := []graph.StreamEdge{
		{Edge: graph.Edge{ID: 1, Timestamp: 5}},
		{Edge: graph.Edge{ID: 2, Timestamp: 5}},
	}
	b := []graph.StreamEdge{
		{Edge: graph.Edge{ID: 3, Timestamp: 5}},
	}
	got := Merge(a, b)
	want := []graph.EdgeID{1, 2, 3}
	for i, id := range want {
		if got[i].Edge.ID != id {
			t.Fatalf("tie order = %v %v %v, want 1 2 3", got[0].Edge.ID, got[1].Edge.ID, got[2].Edge.ID)
		}
	}
}

func TestMergeMatchesSortOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var streams [][]graph.StreamEdge
	var all []graph.StreamEdge
	id := graph.EdgeID(1)
	for s := 0; s < 5; s++ {
		n := rng.Intn(50)
		edges := make([]graph.StreamEdge, n)
		ts := graph.Timestamp(rng.Intn(100))
		for i := range edges {
			ts += graph.Timestamp(rng.Intn(5)) // non-decreasing, with ties
			edges[i] = graph.StreamEdge{Edge: graph.Edge{ID: id, Timestamp: ts}}
			id++
		}
		streams = append(streams, edges)
		all = append(all, edges...)
	}
	want := append([]graph.StreamEdge(nil), all...)
	SortByTimestamp(want)
	got := Merge(streams...)
	if len(got) != len(want) {
		t.Fatalf("merged %d edges, want %d", len(got), len(want))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		return got[i].Edge.Timestamp < got[j].Edge.Timestamp
	}) {
		t.Fatalf("merge output not sorted")
	}
	for i := range got {
		if got[i].Edge.Timestamp != want[i].Edge.Timestamp {
			t.Fatalf("merge diverges from stable sort at %d", i)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	const k = 8
	const per = 20_000
	streams := make([][]graph.StreamEdge, k)
	for s := range streams {
		streams[s] = makeEdges(per, graph.Timestamp(s), k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Merge(streams...)
		if len(out) != k*per {
			b.Fatalf("merged %d", len(out))
		}
	}
}
