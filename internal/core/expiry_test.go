package core

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// pathQuery is a two-hop pattern with no time window: its window is the
// retention, by which its partial matches age out.
func pathQuery() *query.Graph {
	return query.NewBuilder("path").
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "Host").
		Edge("a", "b", "hop1").
		Edge("b", "c", "hop2").
		MustBuild()
}

// TestEngineExpiryPrunesUnwindowedPartials: half-matches of a window-less
// query are dropped once the edges they bind fall out of the retention
// window, instead of accumulating forever.
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
	if got := reg.PartialMatches(); got != 8 {
		t.Fatalf("PartialMatchCount = %d, want 8", got)
	}
	// Jump stream time far past retention: all hop1 edges expire, and the
	// prune triggered by the watermark move must drain them from the DAG.
	e.Advance(base.Add(time.Minute))
	if live := e.Graph().NumEdges(); live != 0 {
		t.Fatalf("%d edges still live after advance", live)
	}
	if got := reg.PartialMatches(); got != 0 {
		t.Fatalf("PartialMatchCount = %d after expiry, want 0", got)
	}
	if m := e.Metrics(); m.PartialsPruned != 8 {
		t.Fatalf("PartialsPruned = %d, want 8", m.PartialsPruned)
	}
}

// TestWindowlessQueryTakesTheWidenedRetention: a window-less query
// registered before a windowed one widens the retention from 5 s to 30 s
// has the widened retention as its window: it is sent a match spanning 20 s
// and not one spanning exactly 30 s, and its partials still age out.
func TestWindowlessQueryTakesTheWidenedRetention(t *testing.T) {
	e := New(&Config{Retention: 5 * time.Second, PruneInterval: 4})
	reg, err := e.RegisterQuery(pathQuery(), WithStrategy(decompose.StrategyEager))
	if err != nil {
		t.Fatalf("RegisterQuery(path): %v", err)
	}
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
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	var got []MatchEvent
	for _, se := range []graph.StreamEdge{
		hostEdge(1, 1, 2, "hop1", base),
		hostEdge(2, 2, 3, "hop2", base.Add(20*time.Second)),
		hostEdge(3, 3, 4, "hop1", base.Add(21*time.Second)),
		hostEdge(4, 4, 5, "hop2", base.Add(51*time.Second)),
	} {
		got = append(got, e.ProcessEdge(se)...)
	}
	if len(got) != 1 || got[0].Match.Span.End.Sub(got[0].Match.Span.Start) != 20*time.Second {
		t.Fatalf("path was sent %v, want the one match spanning 20s", got)
	}
	if n := reg.PartialMatches(); n == 0 {
		t.Fatal("no partials stored: the test proves nothing about their expiry")
	}
	e.Advance(base.Add(2 * time.Minute))
	if n := reg.PartialMatches(); n != 0 {
		t.Fatalf("PartialMatchCount = %d two minutes on, want 0", n)
	}
}

// TestExtendRetentionAfterAdvanceKeepsTheWatermark: a registration that
// widens the retention after stream time has advanced, but before any edge,
// widens the window graph in place: the watermark stays, so an edge far
// behind it is still dropped.
func TestExtendRetentionAfterAdvanceKeepsTheWatermark(t *testing.T) {
	e := New(&Config{Retention: 5 * time.Second})
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	e.Advance(base.Add(100 * time.Second))
	if _, err := e.RegisterQuery(smurfQuery(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := e.Graph().Window(); got != 30*time.Second {
		t.Fatalf("retention not widened: %s", got)
	}
	if got := e.Graph().Watermark(); got != base.Add(100*time.Second) {
		t.Fatalf("watermark %d after widening, want %d", got, base.Add(100*time.Second))
	}
	e.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base.Add(time.Second)))
	if m := e.Metrics(); m.EdgesDropped != 1 || m.LiveEdges != 0 {
		t.Fatalf("an edge 99s behind the watermark: %d dropped, %d live", m.EdgesDropped, m.LiveEdges)
	}
}
