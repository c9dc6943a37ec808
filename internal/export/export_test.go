package export

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

func fixture(t *testing.T) (*graph.Graph, *query.Graph, []core.MatchEvent) {
	t.Helper()
	q := query.NewBuilder("smurf").
		Window(time.Minute).
		Vertex("attacker", "Host").
		Vertex("amplifier", "Host").
		Vertex("victim", "Host").
		Edge("attacker", "amplifier", "icmp_echo_req").
		Edge("amplifier", "victim", "icmp_echo_rep").
		MustBuild()
	e := core.New(nil)
	if _, err := e.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	mk := func(id graph.EdgeID, src, dst graph.VertexID, typ string, ts graph.Timestamp) graph.StreamEdge {
		return graph.StreamEdge{
			Edge:        graph.Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: ts},
			SourceType:  "Host",
			TargetType:  "Host",
			SourceAttrs: graph.Attributes{"site": graph.String("hq")},
		}
	}
	var events []core.MatchEvent
	events = append(events, e.ProcessEdge(mk(1, 1, 2, "icmp_echo_req", 100))...)
	events = append(events, e.ProcessEdge(mk(2, 2, 3, "icmp_echo_rep", 200))...)
	if len(events) != 1 {
		t.Fatalf("fixture expected one match, got %d", len(events))
	}
	return e.Graph().Graph(), q, events
}

func TestBuildReportResolvesBindings(t *testing.T) {
	g, q, events := fixture(t)
	r := BuildReport(events[0], q, g)
	if r.Query != "smurf" {
		t.Fatalf("query name missing")
	}
	if len(r.Bindings) != 3 {
		t.Fatalf("bindings = %d", len(r.Bindings))
	}
	if r.Bindings[0].Variable != "attacker" || r.Bindings[0].VertexID != 1 {
		t.Fatalf("attacker binding wrong: %+v", r.Bindings[0])
	}
	if r.Bindings[0].VertexType != "Host" {
		t.Fatalf("vertex type not resolved")
	}
	if r.Bindings[0].Attrs["site"] != "hq" {
		t.Fatalf("vertex attrs not resolved: %+v", r.Bindings[0].Attrs)
	}
	if r.SpanStart != 100 || r.SpanEnd != 200 {
		t.Fatalf("span wrong: %+v", r)
	}
	if len(r.EdgeIDs) != 2 || r.EdgeIDs[0] != 1 || r.EdgeIDs[1] != 2 {
		t.Fatalf("edge ids wrong: %v", r.EdgeIDs)
	}
	// Without a data graph, only IDs are reported.
	bare := BuildReport(events[0], nil, nil)
	if bare.Bindings[0].Variable != "q0" || bare.Bindings[0].VertexType != "" {
		t.Fatalf("bare report wrong: %+v", bare.Bindings[0])
	}
}

// TestBuildReportAllocationBudget: a report costs its bindings and its
// edge-ID list; the signature is reused when the event carries one (the DAG
// builds it once per consumer group) and built otherwise.
func TestBuildReportAllocationBudget(t *testing.T) {
	_, q, events := fixture(t)
	signed := events[0]
	if signed.Signature != signed.Match.Signature() {
		t.Fatalf("engine signed its match %q, want %q", signed.Signature, signed.Match.Signature())
	}
	unsigned := signed
	unsigned.Signature = ""
	var r MatchReport
	allocbudget.Check(t, "export.BuildReport", func() { r = BuildReport(signed, q, nil) })
	if r.Signature != signed.Signature {
		t.Fatalf("report signature %q, event carried %q", r.Signature, signed.Signature)
	}
	allocbudget.Check(t, "export.BuildReport/unsigned", func() { r = BuildReport(unsigned, q, nil) })
	if r.Signature != signed.Signature {
		t.Fatalf("report signature %q, want %q", r.Signature, signed.Signature)
	}
}

// TestReporterSharesAGroupsSlices: the 25 reports of one match handed to 25
// like-named queries carve one bindings slice and one edge-ID list between
// them from the Reporter's slabs, allocating nothing, read exactly like 25 separate reports, and stop sharing as soon as
// the match or the variable names change.
func TestReporterSharesAGroupsSlices(t *testing.T) {
	_, q, events := fixture(t)
	ev := events[0]
	ev.Signature = ev.Match.Signature()
	group := make([]core.MatchEvent, 25)
	for i := range group {
		group[i] = ev
		group[i].Query = fmt.Sprintf("rule-%02d", i)
	}
	// A fresh match per call, or the second call would share with the first.
	clones := make([]*match.Match, allocbudget.Runs+1)
	for i := range clones {
		clones[i] = ev.Match.Clone()
	}
	var rep Reporter
	var got []MatchReport
	next := 0
	allocbudget.Check(t, "export.Reporter/25-consumer group", func() {
		got = got[:0]
		for _, member := range group {
			member.Match = clones[next]
			got = append(got, rep.Build(member, q))
		}
		next++
	})
	for i, r := range got {
		member := group[i]
		member.Match = clones[next-1]
		want := BuildReport(member, q, nil)
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("shared report %d = %+v, want %+v", i, r, want)
		}
		if &r.EdgeIDs[0] != &got[0].EdgeIDs[0] || &r.Bindings[0] != &got[0].Bindings[0] {
			t.Fatalf("report %d does not share the group's slices", i)
		}
	}
	renamed := query.NewBuilder("renamed").
		Vertex("x", "Host").Vertex("y", "Host").Vertex("z", "Host").
		Edge("x", "y", "icmp_echo_req").Edge("y", "z", "icmp_echo_rep").
		MustBuild()
	last := group[24]
	last.Match = clones[next-1]
	other := rep.Build(last, renamed)
	if other.Bindings[0].Variable != "x" || &other.EdgeIDs[0] != &got[0].EdgeIDs[0] {
		t.Fatalf("report under other variable names: %+v", other)
	}
	if fresh := rep.Build(ev, q); &fresh.EdgeIDs[0] == &got[0].EdgeIDs[0] {
		t.Fatal("a different match reused the previous one's edge IDs")
	}
}

// TestReporterEqualsBuildReport: over matches of random width with unbound
// gaps — enough of them to fill many slab chunks, some wider than one — a
// report carved through a Reporter reads exactly like BuildReport's, and a
// sink appending to one report's slices leaves the next report intact.
func TestReporterEqualsBuildReport(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var rep Reporter
	var prev MatchReport
	for i := 0; i < 5000; i++ {
		nv, ne := 1+rng.Intn(8), 1+rng.Intn(8)
		if i%500 == 0 {
			nv, ne = 300, 1100 // wider than a chunk of either slab
		}
		m := match.NewSized(nv, ne)
		for qv := 0; qv < nv; qv++ {
			if rng.Intn(4) > 0 {
				m.BindVertex(query.VertexID(qv), graph.VertexID(rng.Uint64()>>1))
			}
		}
		for qe := 0; qe < ne; qe++ {
			if rng.Intn(4) > 0 {
				m.BindEdge(query.EdgeID(qe), graph.EdgeID(rng.Uint64()>>1), graph.Timestamp(rng.Intn(1000)))
			}
		}
		ev := core.MatchEvent{Query: "q", Match: m, Signature: m.Signature(), DetectedAt: graph.Timestamp(i)}
		got := rep.Build(ev, nil)
		if want := BuildReport(ev, nil, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("match %d: Reporter built %+v, BuildReport %+v", i, got, want)
		}
		if i > 0 {
			ids, vars := slices.Clone(got.EdgeIDs), slices.Clone(got.Bindings)
			_ = append(prev.EdgeIDs, 1, 2, 3)
			_ = append(prev.Bindings, Binding{Variable: "x"})
			if !slices.Equal(got.EdgeIDs, ids) || !reflect.DeepEqual(got.Bindings, vars) {
				t.Fatalf("match %d: appending to the previous report changed this one", i)
			}
		}
		prev = got
	}
}
