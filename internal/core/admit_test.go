package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// TestAdmitDropsOnlyLateEdges: a batch with no edge behind the watermark
// comes back as it went in, the same slice, with no allocation. A batch
// holding late edges comes back as a new slice without them, each counted
// as dropped, and the caller's batch is left as it was; processing what
// came back drops nothing more.
func TestAdmitDropsOnlyLateEdges(t *testing.T) {
	base := graph.TimestampFromTime(time.Unix(4000, 0))
	edge := func(id int, ts graph.Timestamp) graph.StreamEdge {
		return graph.StreamEdge{Edge: graph.Edge{ID: graph.EdgeID(id), Source: 1, Target: 2, Type: "flow", Timestamp: ts}}
	}
	e := New(&Config{Retention: time.Minute, Slack: time.Second})
	inOrder := []graph.StreamEdge{edge(1, base), edge(2, base.Add(-time.Second/2)), edge(3, base.Add(time.Second))}
	var admitted []graph.StreamEdge
	allocbudget.Check(t, "core.Engine.Admit/none late", func() { admitted = e.Admit(inOrder) })
	if len(admitted) != len(inOrder) || &admitted[0] != &inOrder[0] {
		t.Error("a batch with no late edge came back as another slice")
	}
	for _, se := range admitted {
		e.ProcessEdge(se)
	}
	// The watermark is now base: edge 5 is behind it, and edge 7 is behind
	// the watermark edge 6 moves to.
	mixed := []graph.StreamEdge{edge(4, base), edge(5, base.Add(-2*time.Second)), edge(6, base.Add(10*time.Second)), edge(7, base.Add(8*time.Second))}
	before := append([]graph.StreamEdge(nil), mixed...)
	admitted = e.Admit(mixed)
	if !reflect.DeepEqual(mixed, before) {
		t.Error("Admit changed the caller's batch")
	}
	if len(admitted) != 2 || admitted[0].Edge.ID != 4 || admitted[1].Edge.ID != 6 {
		t.Errorf("admitted %v, want edges 4 and 6", admitted)
	}
	for _, se := range admitted {
		e.ProcessEdge(se)
	}
	if m := e.Metrics(); m.EdgesDropped != 2 || m.EdgesProcessed != 5 {
		t.Errorf("%d edges dropped, %d processed; want 2 and 5", m.EdgesDropped, m.EdgesProcessed)
	}
}
