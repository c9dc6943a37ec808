package mqo

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/sjtree"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// smurfReversed is smurf with its variables declared in the opposite order:
// the same canonical pattern, but different pattern vertex IDs and so
// different maps out of the shared root.
func smurfReversed(name string, window time.Duration) *query.Graph {
	return query.NewBuilder(name).
		Window(window).
		Vertex("victim", "Host").
		Vertex("amplifier", "Host").
		Vertex("attacker", "Host").
		Edge("attacker", "amplifier", "icmp_echo_req").
		Edge("amplifier", "victim", "icmp_echo_reply").
		MustBuild()
}

// privateTreeSignatures replays edges through one private SJ-Tree for q, the
// way the per-query engine drives it, and returns the emitted signatures in
// emission order.
func privateTreeSignatures(t *testing.T, q *query.Graph, edges []graph.StreamEdge) []string {
	t.Helper()
	tree, err := sjtree.New(planFor(t, q))
	if err != nil {
		t.Fatal(err)
	}
	matcher := isomorphism.New(q)
	dyn := graph.NewDynamic(0)
	var sigs []string
	for _, se := range edges {
		de, err := dyn.Apply(se)
		if err != nil {
			t.Fatalf("apply edge %d: %v", se.Edge.ID, err)
		}
		for _, leaf := range tree.Leaves() {
			for _, qe := range leaf.Edges() {
				if !q.Edge(qe).MatchesEdge(de) {
					continue
				}
				order := matcher.ConnectedOrder(leaf.Edges(), qe)
				for _, pm := range matcher.LocalSearchInto(nil, dyn.Graph(), order, de) {
					for _, cm := range tree.Insert(leaf, pm) {
						sigs = append(sigs, cm.Signature())
					}
				}
			}
		}
	}
	return sigs
}

// TestConsumerGroupsMatchPrivateTrees: three queries of one shape share one
// root node — two declared alike but with different windows (one consumer
// group), one with its variables declared in the opposite order (a second
// group) — and each emits exactly what a private tree of its own emits, in
// its own pattern space and under its own window, across a plan swap too.
func TestConsumerGroupsMatchPrivateTrees(t *testing.T) {
	queries := []*query.Graph{
		smurf("wide", time.Minute),
		smurf("narrow", 2*time.Second),
		smurfReversed("reversed", 5*time.Second),
	}
	base := graph.TimestampFromTime(time.Unix(5000, 0))
	var edges []graph.StreamEdge
	for i, gap := range []time.Duration{time.Second, 3 * time.Second, 10 * time.Second, 0, 90 * time.Second} {
		v, id, at := graph.VertexID(10*i), graph.EdgeID(2*i), base.Add(time.Duration(i)*time.Hour)
		edges = append(edges,
			hostEdge(id+1, v+1, v+2, "icmp_echo_req", at),
			hostEdge(id+2, v+2, v+3, "icmp_echo_reply", at.Add(gap)))
	}

	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	var root *node
	for _, q := range queries {
		att, err := d.Attach(q.Name(), q, planWith(t, q, decompose.StrategyEager), AttachOptions{Emit: col.emitFn(q.Name())})
		if err != nil {
			t.Fatal(err)
		}
		if root != nil && att.root != root {
			t.Fatalf("%s resolved to a root of its own", q.Name())
		}
		root = att.root
	}
	if d.NumNodes() != 3 {
		t.Fatalf("DAG has %d nodes, want two leaves and one join", d.NumNodes())
	}
	var sizes []int
	for _, g := range root.consumers {
		sizes = append(sizes, len(g))
	}
	if !slices.Equal(sizes, []int{2, 1}) {
		t.Fatalf("consumer group sizes = %v, want [2 1]", sizes)
	}

	feed(t, dyn, d, edges[:6])
	// Swapping one member onto another plan must carry its emitted set along
	// and leave the rest of its group alone.
	if _, err := d.Swap("wide", planFor(t, queries[0])); err != nil {
		t.Fatal(err)
	}
	feed(t, dyn, d, edges[6:])

	for _, q := range queries {
		want := privateTreeSignatures(t, q, edges)
		if got := col.sigs[q.Name()]; !slices.Equal(got, want) {
			t.Errorf("%s emitted %v, its private tree %v", q.Name(), got, want)
		}
	}
	if len(col.sigs["wide"]) != 4 || len(col.sigs["narrow"]) != 2 || len(col.sigs["reversed"]) != 3 {
		t.Fatalf("windows not applied per query: %v", col.sigs)
	}
}

// TestGroupMembersShareOneMatch: the members of a group are handed the very
// same match value and signature string.
func TestGroupMembersShareOneMatch(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	var got []*match.Match
	var sigs []string
	for i := 0; i < 3; i++ {
		q := smurf(fmt.Sprintf("s%d", i), time.Duration(i+1)*time.Minute)
		opt := AttachOptions{EmitSigned: func(m *match.Match, sig string) {
			got, sigs = append(got, m), append(sigs, sig)
		}}
		if _, err := d.Attach(q.Name(), q, planFor(t, q), opt); err != nil {
			t.Fatal(err)
		}
	}
	base := graph.TimestampFromTime(time.Unix(6000, 0))
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)),
	})
	if len(got) != 3 || got[0] != got[1] || got[1] != got[2] {
		t.Fatalf("members received %v, want one shared match three times", got)
	}
	if sigs[0] != got[0].Signature() || sigs[1] != sigs[0] || sigs[2] != sigs[0] {
		t.Fatalf("signatures %q, want %q three times", sigs, got[0].Signature())
	}
}

// TestRootDeliveryAllocationBudget: fanning one root match out to a group
// of 25 queries costs one Remap and one Signature — not 25 of each.
func TestRootDeliveryAllocationBudget(t *testing.T) {
	d := New(graph.NewDynamic(0))
	var group consumerGroup
	emitted := 0
	for i := 0; i < 25; i++ {
		q := smurf(fmt.Sprintf("s%02d", i), time.Duration(i+1)*time.Minute)
		att, err := d.Attach(q.Name(), q, planFor(t, q), AttachOptions{
			EmitSigned: func(*match.Match, string) { emitted++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		group = att.root.consumers[0]
	}
	if len(group) != 25 {
		t.Fatalf("group has %d members, want 25", len(group))
	}
	roots := make([]*match.Match, allocbudget.Runs+1) // one per call, built up front
	for i := range roots {
		m := match.NewSized(3, 2)
		for qv := 0; qv < 3; qv++ {
			m.BindVertex(query.VertexID(qv), graph.VertexID(10*i+qv))
		}
		for qe := 0; qe < 2; qe++ {
			m.BindEdge(query.EdgeID(qe), graph.EdgeID(10*i+qe), graph.Timestamp(i))
		}
		roots[i] = m
	}
	next := 0
	allocbudget.Check(t, "mqo.deliver/25-consumers", func() {
		group.deliver(roots[next], false)
		next++
	})
	if emitted != 25*next {
		t.Fatalf("%d emissions from %d root matches to 25 queries", emitted, next)
	}
}
