package baseline

import (
	"math/rand"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stream"
)

func wedgeQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("wedge").
		Window(window).
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "Host").
		Edge("a", "b", "flow").
		Edge("b", "c", "dns").
		MustBuild()
}

func hostEdge(id graph.EdgeID, src, dst graph.VertexID, typ string, ts graph.Timestamp) graph.StreamEdge {
	return graph.StreamEdge{
		Edge:       graph.Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: ts},
		SourceType: "Host",
		TargetType: "Host",
	}
}

func randomStream(n, vertices int, seed int64) []graph.StreamEdge {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"flow", "dns", "login"}
	out := make([]graph.StreamEdge, 0, n)
	for i := 0; i < n; i++ {
		src := graph.VertexID(rng.Intn(vertices))
		dst := graph.VertexID(rng.Intn(vertices))
		for dst == src {
			dst = graph.VertexID(rng.Intn(vertices))
		}
		out = append(out, hostEdge(graph.EdgeID(i+1), src, dst, types[rng.Intn(len(types))], graph.Timestamp(i)))
	}
	return out
}

func signatures(events []core.MatchEvent) map[string]bool {
	out := make(map[string]bool, len(events))
	for _, ev := range events {
		out[ev.Match.Signature()] = true
	}
	return out
}

func TestRecomputeFindsSameMatchesAsEngine(t *testing.T) {
	edges := randomStream(250, 30, 7)
	q := wedgeQuery(0)

	e := core.New(nil)
	if _, err := e.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	var engineEvents []core.MatchEvent
	for _, se := range edges {
		engineEvents = append(engineEvents, e.ProcessEdge(se)...)
	}

	r := NewRecompute(0, 0)
	if err := r.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	var baselineEvents []core.MatchEvent
	for i := 0; i < len(edges); i += 25 {
		baselineEvents = append(baselineEvents, r.ProcessBatch(stream.Batch{Edges: edges[i : i+25]})...)
	}

	es, bs := signatures(engineEvents), signatures(baselineEvents)
	if len(es) == 0 {
		t.Fatalf("degenerate fixture: engine found no matches")
	}
	if len(es) != len(bs) {
		t.Fatalf("engine found %d matches, recompute baseline %d", len(es), len(bs))
	}
	for sig := range es {
		if !bs[sig] {
			t.Fatalf("recompute baseline missed %s", sig)
		}
	}
	if r.EdgesProcessed() != uint64(len(edges)) {
		t.Fatalf("EdgesProcessed = %d", r.EdgesProcessed())
	}
	if r.SearchesRun() != 10 { // 250 edges / 25 per batch
		t.Fatalf("SearchesRun = %d, want 10", r.SearchesRun())
	}
}

func TestRecomputeDeduplicatesAcrossBatches(t *testing.T) {
	q := wedgeQuery(0)
	r := NewRecompute(0, 0)
	if err := r.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	// Batch 1 completes a wedge; batch 2 adds an unrelated edge. The wedge
	// must be reported exactly once.
	b1 := stream.Batch{Edges: []graph.StreamEdge{
		hostEdge(1, 1, 2, "flow", 1),
		hostEdge(2, 2, 3, "dns", 2),
	}}
	b2 := stream.Batch{Edges: []graph.StreamEdge{
		hostEdge(3, 7, 8, "login", 3),
	}}
	ev1 := r.ProcessBatch(b1)
	ev2 := r.ProcessBatch(b2)
	if len(ev1) != 1 {
		t.Fatalf("batch 1 events = %d", len(ev1))
	}
	if len(ev2) != 0 {
		t.Fatalf("match re-reported in batch 2: %v", ev2)
	}
}

func TestRecomputeHonoursWindow(t *testing.T) {
	q := wedgeQuery(time.Second)
	r := NewRecompute(time.Minute, 0)
	if err := r.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(100, 0))
	events := r.ProcessBatch(stream.Batch{Edges: []graph.StreamEdge{
		hostEdge(1, 1, 2, "flow", base),
		hostEdge(2, 2, 3, "dns", base.Add(10*time.Second)),
	}})
	if len(events) != 0 {
		t.Fatalf("out-of-window match reported: %v", events)
	}
}

func TestNaiveExpandFindsSameMatchesAsEngine(t *testing.T) {
	edges := randomStream(250, 30, 11)
	q := wedgeQuery(0)

	e := core.New(nil)
	if _, err := e.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	var engineEvents []core.MatchEvent
	for _, se := range edges {
		engineEvents = append(engineEvents, e.ProcessEdge(se)...)
	}

	n := NewNaiveExpand(0, 0)
	if err := n.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	var naiveEvents []core.MatchEvent
	for _, se := range edges {
		naiveEvents = append(naiveEvents, n.ProcessEdge(se)...)
	}
	es, ns := signatures(engineEvents), signatures(naiveEvents)
	if len(es) != len(ns) {
		t.Fatalf("engine %d matches, naive %d", len(es), len(ns))
	}
	for sig := range es {
		if !ns[sig] {
			t.Fatalf("naive baseline missed %s", sig)
		}
	}
	if n.EdgesProcessed() != uint64(len(edges)) {
		t.Fatalf("EdgesProcessed = %d", n.EdgesProcessed())
	}
	if n.ExpansionsRun() == 0 {
		t.Fatalf("expansions not counted")
	}
}

func TestNaiveExpandWindow(t *testing.T) {
	q := wedgeQuery(time.Second)
	n := NewNaiveExpand(time.Minute, 0)
	if err := n.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(100, 0))
	n.ProcessEdge(hostEdge(1, 1, 2, "flow", base))
	events := n.ProcessEdge(hostEdge(2, 2, 3, "dns", base.Add(10*time.Second)))
	if len(events) != 0 {
		t.Fatalf("out-of-window match reported")
	}
	// A fresh flow/dns pair arriving close together still matches.
	n.ProcessEdge(hostEdge(3, 5, 6, "flow", base.Add(20*time.Second)))
	events = n.ProcessEdge(hostEdge(4, 6, 7, "dns", base.Add(20*time.Second+500*time.Millisecond)))
	if len(events) != 1 {
		t.Fatalf("in-window match missed")
	}
}

func TestBaselinesRejectNilQuery(t *testing.T) {
	if err := NewRecompute(0, 0).RegisterQuery(nil); err == nil {
		t.Fatalf("recompute accepted nil query")
	}
	if err := NewNaiveExpand(0, 0).RegisterQuery(nil); err == nil {
		t.Fatalf("naive accepted nil query")
	}
}

func TestBaselineGraphAccessors(t *testing.T) {
	r := NewRecompute(time.Minute, 0)
	n := NewNaiveExpand(time.Minute, 0)
	if r.Graph() == nil || n.Graph() == nil {
		t.Fatalf("graph accessors returned nil")
	}
	if r.Graph().Window() != time.Minute || n.Graph().Window() != time.Minute {
		t.Fatalf("retention not applied")
	}
}
