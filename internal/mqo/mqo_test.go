package mqo

import (
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stats"
)

func planFor(t *testing.T, q *query.Graph) *decompose.Plan {
	return planWith(t, q, decompose.StrategySelective)
}

func planWith(t testing.TB, q *query.Graph, s decompose.Strategy) *decompose.Plan {
	t.Helper()
	p, err := decompose.NewPlanner(stats.NewEstimator(nil)).Plan(q, s)
	if err != nil {
		t.Fatalf("planning %s: %v", q.Name(), err)
	}
	return p
}

func smurf(name string, window time.Duration) *query.Graph {
	return query.NewBuilder(name).
		Window(window).
		Vertex("attacker", "Host").
		Vertex("amplifier", "Host").
		Vertex("victim", "Host").
		Edge("attacker", "amplifier", "icmp_echo_req").
		Edge("amplifier", "victim", "icmp_echo_reply").
		MustBuild()
}

// probe shares the icmp_echo_req leaf with smurf but continues differently.
func probe(name string, window time.Duration) *query.Graph {
	return query.NewBuilder(name).
		Window(window).
		Vertex("scanner", "Host").
		Vertex("target", "Host").
		Vertex("resolver", "Host").
		Edge("scanner", "target", "icmp_echo_req").
		Edge("target", "resolver", "dns").
		MustBuild()
}

func hostEdge(id graph.EdgeID, src, dst graph.VertexID, typ string, ts graph.Timestamp) graph.StreamEdge {
	return graph.StreamEdge{
		Edge:       graph.Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: ts},
		SourceType: "Host",
		TargetType: "Host",
	}
}

// collector accumulates emitted match signatures per query.
type collector struct {
	sigs map[string][]string
}

func newCollector() *collector { return &collector{sigs: map[string][]string{}} }

func (c *collector) emitFn(name string) func(*match.Match) {
	return func(m *match.Match) { c.sigs[name] = append(c.sigs[name], m.Signature()) }
}

// reattach moves an attached query onto another plan the one way there is:
// it detaches the query and attaches it again under plan with the same
// callbacks.
func reattach(t *testing.T, d *DAG, name string, plan *decompose.Plan) *Attachment {
	t.Helper()
	old := d.atts[name]
	if err := d.Detach(name); err != nil {
		t.Fatal(err)
	}
	att, err := d.Attach(name, old.q, plan, AttachOptions{Emit: old.emit, EmitSigned: old.emitSigned})
	if err != nil {
		t.Fatal(err)
	}
	return att
}

func feed(t *testing.T, dyn *graph.Dynamic, d *DAG, edges []graph.StreamEdge) {
	t.Helper()
	for _, se := range edges {
		stored, err := dyn.Apply(se)
		if err != nil {
			t.Fatalf("apply edge %d: %v", se.Edge.ID, err)
		}
		d.ProcessEdge(stored)
	}
}

// TestDAGSharesIdenticalQueries: two structurally identical queries resolve
// to the same DAG nodes, every local search is shared, and both queries emit
// the same matches.
func TestDAGSharesIdenticalQueries(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	q1, q2 := smurf("s1", time.Minute), smurf("s2", time.Minute)
	p1, p2 := planFor(t, q1), planFor(t, q2)
	if _, err := d.Attach("s1", q1, p1, AttachOptions{Emit: col.emitFn("s1")}); err != nil {
		t.Fatal(err)
	}
	soloNodes := d.NumNodes()
	if _, err := d.Attach("s2", q2, p2, AttachOptions{Emit: col.emitFn("s2")}); err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != soloNodes {
		t.Fatalf("identical query created nodes: %d -> %d", soloNodes, d.NumNodes())
	}
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)),
	})
	if got := col.sigs["s1"]; len(got) != 1 {
		t.Fatalf("s1 matches = %v", got)
	}
	if got := col.sigs["s2"]; len(got) != 1 || got[0] != col.sigs["s1"][0] {
		t.Fatalf("s2 matches = %v, want same as s1 %v", got, col.sigs["s1"])
	}
	if d.SharedHits() == 0 {
		t.Fatalf("no shared hits recorded for fully shared queries")
	}
	st := d.Stats()
	if st.SharedNodes != st.Nodes {
		t.Fatalf("expected every node shared, got %d of %d", st.SharedNodes, st.Nodes)
	}
}

// TestDAGPartialOverlapAndDetach: two queries sharing one leaf evaluate that
// leaf once; detaching one query drops only the nodes whose refcount reached
// zero, and the survivor keeps matching.
func TestDAGPartialOverlapAndDetach(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	// Eager plans use single-edge leaves, so the two queries' common
	// icmp_echo_req edge becomes a genuinely shared leaf node (the selective
	// planner folds a 2-edge query into one leaf, leaving nothing to share).
	qs, qp := smurf("smurf", time.Minute), probe("probe", time.Minute)
	if _, err := d.Attach("smurf", qs, planWith(t, qs, decompose.StrategyEager), AttachOptions{Emit: col.emitFn("smurf")}); err != nil {
		t.Fatal(err)
	}
	smurfNodes := d.NumNodes()
	if _, err := d.Attach("probe", qp, planWith(t, qp, decompose.StrategyEager), AttachOptions{Emit: col.emitFn("probe")}); err != nil {
		t.Fatal(err)
	}
	// The echo_req leaf is shared; probe adds its dns leaf and its join.
	if got, want := d.NumNodes(), smurfNodes+2; got != want {
		t.Fatalf("nodes after overlapping attach = %d, want %d", got, want)
	}
	shared := 0
	for _, ns := range d.Stats().PerNode {
		if ns.Refs > 1 {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("shared node count = %d, want 1 (the echo_req leaf)", shared)
	}

	base := graph.TimestampFromTime(time.Unix(2000, 0))
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)),
		hostEdge(3, 2, 4, "dns", base.Add(2*time.Second)),
	})
	if len(col.sigs["smurf"]) != 1 || len(col.sigs["probe"]) != 1 {
		t.Fatalf("matches: smurf=%v probe=%v", col.sigs["smurf"], col.sigs["probe"])
	}
	if d.SharedHits() == 0 {
		t.Fatalf("echo_req searches were not accounted as shared")
	}

	// Detach smurf: its reply leaf and join go, the shared echo_req leaf and
	// probe's nodes stay.
	if err := d.Detach("smurf"); err != nil {
		t.Fatal(err)
	}
	if got, want := d.NumNodes(), 3; got != want {
		t.Fatalf("nodes after detach = %d, want %d", got, want)
	}
	for _, ns := range d.Stats().PerNode {
		if ns.Refs > 1 {
			t.Fatalf("node %s still shared after detach", ns.Sig)
		}
	}
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(4, 7, 8, "icmp_echo_req", base.Add(3*time.Second)),
		hostEdge(5, 8, 9, "dns", base.Add(4*time.Second)),
	})
	if len(col.sigs["probe"]) != 2 {
		t.Fatalf("probe stopped matching after smurf detach: %v", col.sigs["probe"])
	}
	if len(col.sigs["smurf"]) != 1 {
		t.Fatalf("detached smurf kept matching: %v", col.sigs["smurf"])
	}
	if err := d.Detach("probe"); err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 0 {
		t.Fatalf("DAG not empty after last detach: %d nodes", d.NumNodes())
	}
	if err := d.Detach("probe"); err == nil {
		t.Fatal("a detached query was detached again")
	}
}

// TestDAGMidStreamAttachBackfill: attaching after ingest backfills the new
// query's nodes from the retained window. Complete matches that predate the
// attachment are not sent, and the root keeps none of them; partial state is
// live, so completions arriving after the attach are sent — exactly those a
// query attached before the stream is sent after that point.
func TestDAGMidStreamAttachBackfill(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	// The early query's selective plan is one two-edge leaf; the late one's
	// eager plan joins two new leaves, so none of its nodes is shared.
	early := smurf("early", time.Minute)
	if _, err := d.Attach("early", early, planFor(t, early), AttachOptions{Emit: col.emitFn("early")}); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(3000, 0))
	// Full pre-attach match on hosts 1-2-3, dangling request on 7-8.
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)),
		hostEdge(3, 7, 8, "icmp_echo_req", base.Add(2*time.Second)),
	})
	q := smurf("late", time.Minute)
	att, err := d.Attach("late", q, planWith(t, q, decompose.StrategyEager), AttachOptions{Emit: col.emitFn("late")})
	if err != nil {
		t.Fatal(err)
	}
	if att.root == d.atts["early"].root || att.root.left == nil {
		t.Fatal("the late query's plan is not a join of its own")
	}
	if len(col.sigs["early"]) != 1 || len(col.sigs["late"]) != 0 {
		t.Fatalf("before the attach early was sent %v; the attach sent late %v", col.sigs["early"], col.sigs["late"])
	}
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(4, 8, 9, "icmp_echo_reply", base.Add(3*time.Second)), // completes the backfilled partial
		hostEdge(5, 2, 4, "icmp_echo_reply", base.Add(4*time.Second)), // joins edge 1 again
	})
	if len(col.sigs["early"]) != 3 || !slices.Equal(col.sigs["late"], col.sigs["early"][1:]) {
		t.Fatalf("after the attach late was sent %v, early %v", col.sigs["late"], col.sigs["early"])
	}
	if n := att.root.rows.len(); n != 0 {
		t.Fatalf("the parentless root holds %d rows", n)
	}
}

// TestDAGReattachKeepsEmissionIdentity: detaching a query and attaching it
// again under another plan neither loses nor duplicates matches: a partial
// from before the move completes after it.
func TestDAGReattachKeepsEmissionIdentity(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	q := smurf("s", time.Minute)
	p := planFor(t, q)
	if _, err := d.Attach("s", q, p, AttachOptions{Emit: col.emitFn("s")}); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(4000, 0))
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)),
		hostEdge(3, 5, 6, "icmp_echo_req", base.Add(2*time.Second)),
	})
	if len(col.sigs["s"]) != 1 {
		t.Fatalf("matches before the move: %v", col.sigs["s"])
	}
	// Move onto an alternative plan for the same query (eager strategy may
	// produce a structurally different tree; even an identical one exercises
	// the collect-and-rebuild path).
	alt, err := decompose.NewPlanner(stats.NewEstimator(nil)).Plan(q, decompose.StrategyEager)
	if err != nil {
		t.Fatal(err)
	}
	att := reattach(t, d, "s", alt)
	// The already-emitted match must not be re-emitted by backfill...
	if len(col.sigs["s"]) != 1 {
		t.Fatalf("the move duplicated or dropped emissions: %v", col.sigs["s"])
	}
	// ...the dangling partial must be rebuilt (completion still fires)...
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(4, 6, 7, "icmp_echo_reply", base.Add(3*time.Second)),
	})
	if len(col.sigs["s"]) != 2 {
		t.Fatalf("completion after the move lost: %v", col.sigs["s"])
	}
	if att.Plan() != alt {
		t.Fatalf("attachment did not adopt the new plan")
	}
}

// TestDAGWindowNarrowsAfterDetach: a node shared by a wide- and a
// narrow-window query keeps the wide effective window only while the wide
// query is attached.
func TestDAGWindowNarrowsAfterDetach(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	narrow, wide := smurf("narrow", time.Second), smurf("wide", time.Hour)
	if _, err := d.Attach("narrow", narrow, planFor(t, narrow), AttachOptions{Emit: col.emitFn("narrow")}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Attach("wide", wide, planFor(t, wide), AttachOptions{Emit: col.emitFn("wide")}); err != nil {
		t.Fatal(err)
	}
	windows := func() []time.Duration {
		var out []time.Duration
		for _, ns := range d.Stats().PerNode {
			out = append(out, ns.Window)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for _, w := range windows() {
		if w != time.Hour {
			t.Fatalf("shared node window %v, want 1h while wide attached", w)
		}
	}
	if err := d.Detach("wide"); err != nil {
		t.Fatal(err)
	}
	for _, w := range windows() {
		if w != time.Second {
			t.Fatalf("node window %v after wide detach, want 1s", w)
		}
	}
}

// TestWidenDeliversNothing: a narrow query's join root, whose link index
// has dropped by age a leaf row the wider queries below keep, is widened
// when a wide query attaches onto it. It re-indexes the row but, having no
// parent, derives and keeps nothing and sends nothing: not the narrow query's
// old match again, nor that match to the wide query, which attached after
// its last edge. Matches completed later go to each query whose window
// admits them, once — among them one joining the re-indexed row.
func TestWidenDeliversNothing(t *testing.T) {
	dyn := graph.NewDynamic(0)
	d := New(dyn)
	col := newCollector()
	// replyDNS shares smurf's icmp_echo_reply leaf, probe its icmp_echo_req leaf.
	replyDNS := query.NewBuilder("replydns").Window(time.Minute).
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		Edge("a", "b", "icmp_echo_reply").Edge("b", "c", "dns").
		MustBuild()
	narrow, wide := smurf("narrow", 2*time.Second), smurf("wide", time.Minute)
	for _, q := range []*query.Graph{narrow, probe("probe", time.Minute), replyDNS} {
		if _, err := d.Attach(q.Name(), q, planWith(t, q, decompose.StrategyEager), AttachOptions{Emit: col.emitFn(q.Name())}); err != nil {
			t.Fatal(err)
		}
	}
	base := graph.TimestampFromTime(time.Unix(6000, 0))
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)),
		hostEdge(3, 20, 21, "http", base.Add(10*time.Second)),
	})
	natt := d.atts["narrow"]
	d.Prune(dyn.Watermark(), nil)
	if len(col.sigs["narrow"]) != 1 {
		t.Fatalf("narrow was sent %v, want the match", col.sigs["narrow"])
	}
	watt, err := d.Attach("wide", wide, planWith(t, wide, decompose.StrategyEager), AttachOptions{Emit: col.emitFn("wide")})
	if err != nil {
		t.Fatal(err)
	}
	if watt.root != natt.root || natt.root.window != time.Minute || natt.root.left == nil {
		t.Fatalf("wide does not share narrow's join root widened to a minute")
	}
	if len(col.sigs["narrow"]) != 1 || len(col.sigs["wide"]) != 0 {
		t.Fatalf("attaching wide sent narrow %v, wide %v", col.sigs["narrow"], col.sigs["wide"])
	}
	feed(t, dyn, d, []graph.StreamEdge{
		hostEdge(4, 2, 7, "icmp_echo_reply", base.Add(11*time.Second)), // joins edge 1: spans 11s
		hostEdge(5, 8, 9, "icmp_echo_req", base.Add(12*time.Second)),
		hostEdge(6, 9, 10, "icmp_echo_reply", base.Add(12500*time.Millisecond)),
	})
	if len(col.sigs["narrow"]) != 2 || len(col.sigs["wide"]) != 2 || col.sigs["wide"][0] == col.sigs["wide"][1] ||
		col.sigs["narrow"][1] != col.sigs["wide"][1] {
		t.Fatalf("after the attach narrow was sent %v, wide %v", col.sigs["narrow"], col.sigs["wide"])
	}
	if n := natt.root.rows.len(); n != 0 {
		t.Fatalf("the parentless root holds %d rows", n)
	}
}
