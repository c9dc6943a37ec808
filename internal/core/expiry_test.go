package core

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// pathQuery is a two-hop pattern with no time window: its partial matches
// never age out by span, so only the dynamic graph's expiry callback can
// reclaim them.
func pathQuery() *query.Graph {
	return query.NewBuilder("path").
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "Host").
		Edge("a", "b", "hop1").
		Edge("b", "c", "hop2").
		MustBuild()
}

// TestEngineExpiryPrunesUnwindowedPartials proves the dynamic graph's expiry
// callback is wired into the DAG: half-matches of a window-less query
// are dropped once the edges they bind fall out of the retention window,
// instead of accumulating forever.
func TestEngineExpiryPrunesUnwindowedPartials(t *testing.T) {
	e := New(&Config{Retention: 10 * time.Second, PruneInterval: 4})
	// The eager strategy stores each lone hop1 edge as a partial match;
	// the selective plan would fold the two-hop query into one primitive
	// and store nothing for unmatched halves.
	reg, err := e.RegisterQuery(pathQuery(), WithStrategy(decompose.StrategyEager))
	if err != nil {
		t.Fatalf("RegisterQuery: %v", err)
	}
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	// Half-matches only: hop1 edges with no completing hop2.
	for i := 0; i < 8; i++ {
		se := hostEdge(graph.EdgeID(i+1), graph.VertexID(2*i+1), graph.VertexID(2*i+2), "hop1", base)
		if got := e.ProcessEdge(se); len(got) != 0 {
			t.Fatalf("unexpected complete match: %v", got)
		}
	}
	if got := reg.Attachment().PartialMatches(); got != 8 {
		t.Fatalf("PartialMatchCount = %d, want 8", got)
	}
	// Jump stream time far past retention: all hop1 edges expire, and the
	// prune triggered by the watermark move must drain them from the DAG.
	e.Advance(base.Add(time.Minute))
	if live := e.Graph().NumEdges(); live != 0 {
		t.Fatalf("%d edges still live after advance", live)
	}
	if got := reg.Attachment().PartialMatches(); got != 0 {
		t.Fatalf("PartialMatchCount = %d after expiry, want 0", got)
	}
	if m := e.Metrics(); m.PartialsPruned != 8 {
		t.Fatalf("PartialsPruned = %d, want 8", m.PartialsPruned)
	}
}

// TestEngineExpiryCallbackSurvivesRetentionRebuild registers a windowed
// query wide enough to force ExtendRetention to rebuild the dynamic graph,
// then checks the rebuilt graph still reports expiries into the engine (the
// window-less query's partials are pruned as before).
func TestEngineExpiryCallbackSurvivesRetentionRebuild(t *testing.T) {
	e := New(&Config{Retention: 5 * time.Second, PruneInterval: 4})
	// Wider window than retention, registered before any edge: retention is
	// rebuilt to 30s.
	widened := query.NewBuilder("windowed").
		Window(30*time.Second).
		Vertex("a", "Host").
		Vertex("b", "Host").
		Edge("a", "b", "other").
		MustBuild()
	if _, err := e.RegisterQuery(widened); err != nil {
		t.Fatalf("RegisterQuery(windowed): %v", err)
	}
	if got := e.Graph().Window(); got != 30*time.Second {
		t.Fatalf("retention not widened: %s", got)
	}
	reg, err := e.RegisterQuery(pathQuery(), WithStrategy(decompose.StrategyEager))
	if err != nil {
		t.Fatalf("RegisterQuery(path): %v", err)
	}
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	for i := 0; i < 4; i++ {
		e.ProcessEdge(hostEdge(graph.EdgeID(i+1), graph.VertexID(2*i+1), graph.VertexID(2*i+2), "hop1", base))
	}
	if got := reg.Attachment().PartialMatches(); got != 4 {
		t.Fatalf("PartialMatchCount = %d, want 4", got)
	}
	e.Advance(base.Add(2 * time.Minute))
	if got := reg.Attachment().PartialMatches(); got != 0 {
		t.Fatalf("PartialMatchCount = %d after expiry on rebuilt graph, want 0 (expiry callback lost in ExtendRetention?)", got)
	}
}
