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

// privateTreeSignatures replays edges through one private SJ-Tree for q —
// the single-query reference: a local search per leaf the edge can seed,
// every primitive match inserted — and returns the signatures emitted
// while edges[from:to] arrived — what a query attached for that stretch of
// the stream is owed — in emission order.
func privateTreeSignatures(t *testing.T, q *query.Graph, edges []graph.StreamEdge, from, to int) []string {
	return prunedTreeSignatures(t, q, decompose.StrategySelective, edges, from, to, 0, 0)
}

// prunedTreeSignatures is privateTreeSignatures on a plan of the given
// strategy over a window graph of the given retention and slack, with the
// tree swept by its window every sweepEvery edges, as sweepStream sweeps the
// DAG. A window-less q is never swept: under a bounded retention, pass it
// with the retention as its window, which is what the DAG gives it.
func prunedTreeSignatures(t *testing.T, q *query.Graph, strategy decompose.Strategy, edges []graph.StreamEdge, from, to int, retention, slack time.Duration) []string {
	t.Helper()
	tree, err := sjtree.New(planWith(t, q, strategy))
	if err != nil {
		t.Fatal(err)
	}
	matcher := isomorphism.New(q)
	dyn := graph.NewDynamic(retention, graph.WithSlack(slack))
	var sigs []string
	for i, se := range edges {
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
						if from <= i && i < to {
							sigs = append(sigs, cm.Signature())
						}
					}
				}
			}
		}
		if w := q.Window(); w > 0 && (i+1)%sweepEvery == 0 {
			tree.Prune(dyn.Watermark() - graph.Timestamp(w))
		}
	}
	return sigs
}

// TestConsumerGroupsMatchPrivateTrees: three queries of one shape share one
// root node — two declared alike but with different windows (one consumer
// group), one with its variables declared in the opposite order (a second
// group) — and each emits exactly what a private tree of its own emits, in
// its own pattern space and under its own window, across a re-attach under
// another plan too.
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
		sizes = append(sizes, len(g.members))
	}
	if !slices.Equal(sizes, []int{2, 1}) {
		t.Fatalf("consumer group sizes = %v, want [2 1]", sizes)
	}

	feed(t, dyn, d, edges[:6])
	// Re-attaching one member under another plan must send it nothing twice
	// and leave the rest of its group alone.
	reattach(t, d, "wide", planFor(t, queries[0]))
	feed(t, dyn, d, edges[6:])

	for _, q := range queries {
		want := privateTreeSignatures(t, q, edges, 0, len(edges))
		if got := col.sigs[q.Name()]; !slices.Equal(got, want) {
			t.Errorf("%s emitted %v, its private tree %v", q.Name(), got, want)
		}
	}
	if len(col.sigs["wide"]) != 4 || len(col.sigs["narrow"]) != 2 || len(col.sigs["reversed"]) != 3 {
		t.Fatalf("windows not applied per query: %v", col.sigs)
	}
}

// TestConsumerGroupMembershipMatchesPrivateTrees: a group of 25 queries is
// joined mid-stream, loses its lead, has one member re-attached under
// another plan and then all the others, one by one with the stream running — and
// every query is sent, once and in order, what a private tree of its own
// emits while it is attached. Along the way the groups are where they
// should be: the late query joins the group, the mover leaves it for a group
// of its own, and the others join the mover's once all have moved.
func TestConsumerGroupMembershipMatchesPrivateTrees(t *testing.T) {
	windows := []time.Duration{time.Minute, 5 * time.Second, 2 * time.Second}
	var queries []*query.Graph
	for i := 0; i < 25; i++ {
		queries = append(queries, smurf(fmt.Sprintf("s%02d", i), windows[i%3]))
	}
	late := smurf("late", time.Minute)
	// Pair i is a request and its reply on hosts of its own, the reply after
	// a gap that puts the match inside one, two or all three windows — or
	// none.
	base := graph.TimestampFromTime(time.Unix(7000, 0))
	gaps := []time.Duration{time.Second, 3 * time.Second, 10 * time.Second, 0, 90 * time.Second, 4 * time.Second}
	var edges []graph.StreamEdge
	for i := 0; i < 90; i++ {
		v, id, at := graph.VertexID(10*i), graph.EdgeID(2*i), base.Add(time.Duration(i)*time.Hour)
		edges = append(edges,
			hostEdge(id+1, v+1, v+2, "icmp_echo_req", at),
			hostEdge(id+2, v+2, v+3, "icmp_echo_reply", at.Add(gaps[i%len(gaps)])))
	}

	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	attached := map[string][2]int{} // query -> the stretch of edges it saw
	fed := 0
	feedTo := func(n int) { feed(t, dyn, d, edges[fed:n]); fed = n }
	attach := func(q *query.Graph) *Attachment {
		att, err := d.Attach(q.Name(), q, planWith(t, q, decompose.StrategyEager), AttachOptions{Emit: col.emitFn(q.Name())})
		if err != nil {
			t.Fatal(err)
		}
		attached[q.Name()] = [2]int{fed, len(edges)}
		return att
	}
	var group *consumerGroup
	for _, q := range queries {
		group = attach(q).group
	}
	oldRoot := group.members[0].root
	if len(oldRoot.consumers) != 1 || len(group.members) != 25 {
		t.Fatalf("%d groups, %d members in the first", len(oldRoot.consumers), len(group.members))
	}

	feedTo(40)
	if att := attach(late); att.group != group {
		t.Fatal("the late query did not join the group")
	}

	feedTo(60)
	if err := d.Detach("s00"); err != nil {
		t.Fatal(err)
	}
	attached["s00"] = [2]int{0, fed}
	if group.members[0].name != "s01" || len(group.members) != 25 {
		t.Fatalf("after the lead left: lead %s of %d", group.members[0].name, len(group.members))
	}

	feedTo(80)
	// One member moves to a group of its own; the others stay behind.
	moved := reattach(t, d, "s05", planFor(t, queries[5]))
	if moved.group == group || len(moved.group.members) != 1 || len(group.members) != 24 {
		t.Fatalf("after one move: mover's group of %d, the old one of %d", len(moved.group.members), len(group.members))
	}

	feedTo(100)
	// Everybody else follows, with the stream running in between.
	for _, name := range slices.Clone(d.attOrder[:len(d.attOrder)-1]) { // the mover is last
		reattach(t, d, name, planFor(t, d.atts[name].q))
		feedTo(fed + 2)
	}
	if _, gone := d.nodes[oldRoot.sig]; !gone && oldRoot.refs() > 0 {
		t.Fatalf("the old root still has %d references", oldRoot.refs())
	}
	if n := len(moved.root.consumers); n != 1 || len(moved.group.members) != 25 || d.NumNodes() != 1 {
		t.Fatalf("after all moved: %d groups, %d members, %d nodes", n, len(moved.group.members), d.NumNodes())
	}
	feedTo(len(edges))

	emitted := 0
	for _, q := range append(queries, late) {
		span := attached[q.Name()]
		want := privateTreeSignatures(t, q, edges, span[0], span[1])
		if got := col.sigs[q.Name()]; !slices.Equal(got, want) {
			t.Errorf("%s emitted %v, its private tree %v", q.Name(), got, want)
		}
		emitted += len(want)
	}
	if emitted < 1000 {
		t.Fatalf("vacuous: %d emissions over 26 queries", emitted)
	}
}

// TestReattachThroughAGroupSendsNothingTwice: a query re-attached under a
// plan that puts it into an existing group — which was never sent a match
// only the newcomer's window admits — and out again onto rebuilt nodes,
// which derive that match a second time from the retained edges, is not sent
// it twice: an attach delivers nothing its backfills derive.
func TestReattachThroughAGroupSendsNothingTwice(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	wide, narrow := smurf("wide", time.Minute), smurf("narrow", 2*time.Second)
	if _, err := d.Attach("wide", wide, planWith(t, wide, decompose.StrategyEager), AttachOptions{Emit: col.emitFn("wide")}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Attach("narrow", narrow, planFor(t, narrow), AttachOptions{Emit: col.emitFn("narrow")}); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(9000, 0))
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(5*time.Second)),
	})
	att := reattach(t, d, "wide", planFor(t, wide))
	if len(att.group.members) != 2 || len(col.sigs["wide"]) != 1 {
		t.Fatalf("wide joined a group of %d, was sent %v; want narrow's, and the one match", len(att.group.members), col.sigs["wide"])
	}
	reattach(t, d, "wide", planWith(t, wide, decompose.StrategyEager))
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(3, 5, 6, "icmp_echo_req", base.Add(time.Hour)),
		hostEdge(4, 6, 7, "icmp_echo_reply", base.Add(time.Hour+time.Second)),
	})
	if len(col.sigs["wide"]) != 2 || col.sigs["wide"][0] == col.sigs["wide"][1] || len(col.sigs["narrow"]) != 1 {
		t.Fatalf("wide was sent %v, narrow %v", col.sigs["wide"], col.sigs["narrow"])
	}
}

// TestDetachEmptiesOnlyItsGroup: two consumer groups read one root. A
// detach takes its query out of its group, and the group off the root only
// once its last member has left; the root and the other group stay and go
// on delivering, and a query attached afterwards in the emptied group's
// shape gets a group of its own.
func TestDetachEmptiesOnlyItsGroup(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	for _, q := range []*query.Graph{smurf("wide", time.Minute), smurf("narrow", time.Minute), smurfReversed("reversed", time.Minute)} {
		if _, err := d.Attach(q.Name(), q, planWith(t, q, decompose.StrategyEager), AttachOptions{Emit: col.emitFn(q.Name())}); err != nil {
			t.Fatal(err)
		}
	}
	root, group := d.atts["wide"].root, d.atts["wide"].group
	if len(root.consumers) != 2 {
		t.Fatalf("%d groups on the root, want 2", len(root.consumers))
	}
	base := graph.TimestampFromTime(time.Unix(9500, 0))
	pair := func(i int) []graph.StreamEdge {
		v, id, at := graph.VertexID(10*i), graph.EdgeID(2*i), base.Add(time.Duration(i)*time.Hour)
		return []graph.StreamEdge{
			hostEdge(id+1, v+1, v+2, "icmp_echo_req", at),
			hostEdge(id+2, v+2, v+3, "icmp_echo_reply", at.Add(time.Second)),
		}
	}
	feed(t, dyn, d, pair(0))

	if err := d.Detach("reversed"); err != nil {
		t.Fatal(err)
	}
	if len(root.consumers) != 1 || root.consumers[0] != group || d.nodes[root.sig] != root {
		t.Fatalf("after the reversed group emptied: %d groups, root kept %v", len(root.consumers), d.nodes[root.sig] == root)
	}
	if err := d.Detach("narrow"); err != nil {
		t.Fatal(err)
	}
	if len(root.consumers) != 1 || len(group.members) != 1 || group.members[0].name != "wide" {
		t.Fatalf("after narrow left: %d groups, %d members", len(root.consumers), len(group.members))
	}
	feed(t, dyn, d, pair(1))

	back := smurfReversed("reversed-again", time.Minute)
	att, err := d.Attach(back.Name(), back, planWith(t, back, decompose.StrategyEager), AttachOptions{Emit: col.emitFn(back.Name())})
	if err != nil {
		t.Fatal(err)
	}
	if att.root != root || att.group == group || len(root.consumers) != 2 {
		t.Fatalf("the returning shape: same root %v, own group %v, %d groups", att.root == root, att.group != group, len(root.consumers))
	}
	feed(t, dyn, d, pair(2))
	if len(col.sigs["wide"]) != 3 || len(col.sigs["narrow"]) != 1 || len(col.sigs["reversed"]) != 1 || len(col.sigs["reversed-again"]) != 1 {
		t.Fatalf("sent %v", col.sigs)
	}
}

// TestAttachRefusalChangesNothing: an attach refused — a plan that fails
// validation, or a name already attached — leaves the DAG exactly as it was:
// every query in its place in attach order and in its group, no node added,
// so prune order and the emission order among group members do not depend
// on a failed registration.
func TestAttachRefusalChangesNothing(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	var group *consumerGroup
	for i := 0; i < 3; i++ {
		q := smurf(fmt.Sprintf("s%d", i), time.Minute)
		att, err := d.Attach(q.Name(), q, planWith(t, q, decompose.StrategyEager), AttachOptions{Emit: col.emitFn(q.Name())})
		if err != nil {
			t.Fatal(err)
		}
		group = att.group
	}
	base := graph.TimestampFromTime(time.Unix(8000, 0))
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)),
	})
	members, nodes := slices.Clone(group.members), d.NumNodes()

	late := smurf("late", time.Hour)
	bad := *planWith(t, late, decompose.StrategyEager)
	bad.Root = &decompose.Node{Edges: bad.Root.Edges, Left: bad.Root.Left} // a join with one input
	if err := bad.Validate(); err == nil {
		t.Fatal("the broken plan validates")
	}
	if _, err := d.Attach("late", late, &bad, AttachOptions{Emit: col.emitFn("late")}); err == nil {
		t.Fatal("attach of the broken plan succeeded")
	}
	dup := smurf("s1", time.Hour)
	if _, err := d.Attach("s1", dup, planFor(t, dup), AttachOptions{Emit: col.emitFn("dup")}); err == nil {
		t.Fatal("a second attach of s1 succeeded")
	}
	if !slices.Equal(d.attOrder, []string{"s0", "s1", "s2"}) || !slices.Equal(group.members, members) ||
		d.NumNodes() != nodes || d.atts["s1"].group != group || d.atts["s1"].window != time.Minute {
		t.Fatalf("a refused attach moved something: order %v, %d members, %d nodes", d.attOrder, len(group.members), d.NumNodes())
	}
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(3, 5, 6, "icmp_echo_req", base.Add(2*time.Second)),
		hostEdge(4, 6, 7, "icmp_echo_reply", base.Add(3*time.Second)),
	})
	for _, name := range []string{"s0", "s1", "s2"} {
		if len(col.sigs[name]) != 2 {
			t.Fatalf("%s emitted %v after the refused attaches", name, col.sigs[name])
		}
	}
	if len(col.sigs["late"])+len(col.sigs["dup"]) != 0 {
		t.Fatalf("a refused attach was sent %v and %v", col.sigs["late"], col.sigs["dup"])
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

// rowFor builds a row of node n for a data binding given in the query n was
// created from: query vertex qv bound to vertex(qv), query edge qe to
// edge(qe), spanning span.
func rowFor(n *node, vertex func(query.VertexID) uint64, edge func(query.EdgeID) uint64, span graph.Interval) []uint64 {
	row := make([]uint64, n.rows.width)
	for cv, qv := range n.frag.VertToQuery {
		row[cv] = vertex(qv)
	}
	for ce, qe := range n.frag.EdgeToQuery {
		row[n.rows.nv+ce] = edge(qe)
	}
	n.rows.setSpan(row, span)
	return row
}

// TestRootDeliveryAllocationBudget: fanning one root row out to a group of
// 25 queries builds one match in query space and one Signature — not 25 of
// each — and carves both from the DAG's arena, so it allocates nothing.
func TestRootDeliveryAllocationBudget(t *testing.T) {
	d := New(graph.NewDynamic(0))
	var group *consumerGroup
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
	if len(group.members) != 25 {
		t.Fatalf("group has %d members, want 25", len(group.members))
	}
	root := group.members[0].root
	roots := make([][]uint64, allocbudget.Runs+1) // one per call, built up front
	for i := range roots {
		roots[i] = rowFor(root,
			func(qv query.VertexID) uint64 { return uint64(10*i) + uint64(qv) },
			func(qe query.EdgeID) uint64 { return uint64(10*i) + uint64(qe) },
			graph.NewInterval(graph.Timestamp(i)))
	}
	next := 0
	allocbudget.Check(t, "mqo.deliver/25-consumers", func() {
		group.deliver(&d.arena, root, roots[next], 0)
		next++
	})
	if emitted != 25*next {
		t.Fatalf("%d emissions from %d root matches to 25 queries", emitted, next)
	}
}

// TestStoredPartialAllocationBudget: a partial stored under a parent whose
// other input has nothing to join it with is a row in its node's arena and a
// new key of the link's cut index — every partial here has a cut vertex of
// its own, as most do away from a hub — with no copy in parent space and
// nothing built by the probe.
func TestStoredPartialAllocationBudget(t *testing.T) {
	d := New(graph.NewDynamic(0))
	q := smurf("s", 0)
	att, err := d.Attach("s", q, planWith(t, q, decompose.StrategyEager), AttachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	leaf := att.leaves[0]
	if len(leaf.parents) != 1 || leaf.parents[0].parent != att.root {
		t.Fatalf("leaf has %d parents", len(leaf.parents))
	}
	partials := make([][]uint64, allocbudget.Runs+1) // one per call, built up front
	for i := range partials {
		partials[i] = rowFor(leaf,
			func(qv query.VertexID) uint64 { return uint64(1000*i) + uint64(qv) },
			func(query.EdgeID) uint64 { return uint64(i) },
			graph.NewInterval(graph.Timestamp(i)))
	}
	next := 0
	allocbudget.Check(t, "mqo.insert/stored partial, one parent, no sibling hit", func() {
		d.insert(leaf, partials[next])
		next++
	})
	if idx := &leaf.parents[0].link.idx; leaf.rows.len() != next || idx.keys.n != next || att.root.joinAttempts != 0 {
		t.Fatalf("%d inserts: %d stored, %d cut keys indexed, %d join attempts", next, leaf.rows.len(), idx.keys.n, att.root.joinAttempts)
	}
	if st := d.Stats(); st.PartialMatches != next {
		t.Fatalf("Stats counts %d partials for %d stored once each", st.PartialMatches, next)
	}
}

// chain3 is a three-edge path: its eager plan joins two leaves below the
// root.
func chain3(name string) *query.Graph {
	return query.NewBuilder(name).
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").Vertex("d", "Host").
		Edge("a", "b", "icmp_echo_req").
		Edge("b", "c", "icmp_echo_reply").
		Edge("c", "d", "dns").
		MustBuild()
}

// TestJoinedPartialAllocationBudget: a partial that joins a sibling row below
// the root is stored and indexed, its join written into the parent's scratch
// and stored there as a row, indexed in turn and probed against a sibling
// with nothing to offer — all without an allocation.
func TestJoinedPartialAllocationBudget(t *testing.T) {
	d := New(graph.NewDynamic(0))
	q := chain3("c")
	att, err := d.Attach("c", q, planWith(t, q, decompose.StrategyEager), AttachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var leaf *node
	var link *childLink
	for _, n := range att.leaves {
		if pl := n.parents[0]; pl.parent != att.root {
			leaf, link = n, pl.link
		}
	}
	if leaf == nil {
		t.Fatal("no join below the root")
	}
	parent := leaf.parents[0].parent
	sibling := parent.otherLink(link).child
	vertex := func(i int) func(query.VertexID) uint64 {
		return func(qv query.VertexID) uint64 { return uint64(1000*i) + uint64(qv) }
	}
	edge := func(i int) func(query.EdgeID) uint64 {
		return func(qe query.EdgeID) uint64 { return uint64(10*i) + uint64(qe) }
	}
	partials := make([][]uint64, allocbudget.Runs+1) // one per call, built up front
	for i := range partials {
		d.insert(sibling, rowFor(sibling, vertex(i), edge(i), graph.NewInterval(graph.Timestamp(i))))
		partials[i] = rowFor(leaf, vertex(i), edge(i), graph.NewInterval(graph.Timestamp(i)))
	}
	next := 0
	allocbudget.Check(t, "mqo.insert/joined partial", func() {
		d.insert(leaf, partials[next])
		next++
	})
	if parent.rows.len() != next || parent.joinHits != uint64(next) || parent.joinAttempts != uint64(next) {
		t.Fatalf("%d inserts: %d joined rows stored, %d of %d join attempts hit", next, parent.rows.len(), parent.joinHits, parent.joinAttempts)
	}
}

// TestLeafSearchAllocationBudget: an arriving edge whose leaf search finds a
// primitive match, stored and probed against a sibling with nothing to join,
// costs the DAG nothing: the search binds into the leaf's scratch match and
// the row is copied out once.
func TestLeafSearchAllocationBudget(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	q := smurf("s", 0)
	att, err := d.Attach("s", q, planWith(t, q, decompose.StrategyEager), AttachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]graph.Edge, allocbudget.Runs+1) // in the window up front
	for i := range edges {
		v := graph.VertexID(10 * i)
		de, err := dyn.Apply(hostEdge(graph.EdgeID(i+1), v+1, v+2, "icmp_echo_req", graph.Timestamp(i)))
		if err != nil {
			t.Fatal(err)
		}
		edges[i] = *de // Apply's edge is valid only until the next Apply
	}
	next := 0
	allocbudget.Check(t, "mqo.ProcessEdge/leaf search, no join", func() {
		d.ProcessEdge(&edges[next])
		next++
	})
	if got := d.Stats().PartialMatches; got != next || att.root.joinAttempts != 0 {
		t.Fatalf("%d edges: %d partials stored, %d join attempts", next, got, att.root.joinAttempts)
	}
}
