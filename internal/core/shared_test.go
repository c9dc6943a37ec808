package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/query"
)

// probeQuery shares its icmp_echo_req edge with smurfQuery.
func probeQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("probe").
		Window(window).
		Vertex("scanner", "Host").
		Vertex("target", "Host").
		Vertex("resolver", "Host").
		Edge("scanner", "target", "icmp_echo_req").
		Edge("target", "resolver", "dns").
		MustBuild()
}

// exfilQuery is a 3-edge chain overlapping both of the above.
func exfilQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("exfil").
		Window(window).
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "Host").
		Vertex("d", "Host").
		Edge("a", "b", "icmp_echo_req").
		Edge("b", "c", "dns").
		Edge("c", "d", "ftp").
		MustBuild()
}

// randomHostStream generates a deterministic pseudo-random edge stream over a
// small vertex universe so overlapping patterns complete often.
func randomHostStream(seed int64, n int) []graph.StreamEdge {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"icmp_echo_req", "icmp_echo_reply", "dns", "ftp", "http"}
	base := graph.TimestampFromTime(time.Unix(5000, 0))
	edges := make([]graph.StreamEdge, n)
	for i := range edges {
		src := graph.VertexID(rng.Intn(24) + 1)
		dst := graph.VertexID(rng.Intn(24) + 1)
		if dst == src {
			dst = src%24 + 1
		}
		edges[i] = hostEdge(
			graph.EdgeID(i+1), src, dst,
			types[rng.Intn(len(types))],
			base.Add(time.Duration(i)*200*time.Millisecond),
		)
	}
	return edges
}

// matchSets runs edges through e and returns, per query, the sorted set of
// canonical match signatures.
func matchSets(t *testing.T, e *Engine, edges []graph.StreamEdge) map[string][]string {
	t.Helper()
	sets := map[string][]string{}
	for _, se := range edges {
		for _, ev := range e.ProcessEdge(se) {
			sets[ev.Query] = append(sets[ev.Query], ev.Match.Signature())
		}
	}
	for q := range sets {
		sort.Strings(sets[q])
	}
	return sets
}

// naiveMatch is one match the naive-expansion oracle found: the query, the
// match's canonical signature, and the index of the edge whose arrival
// completed it.
type naiveMatch struct {
	query, sig string
	at         int
}

func (nm naiveMatch) key() string { return nm.query + "\x1f" + nm.sig }

// naiveMatches is the independent reference the engine is held to: the
// paper's definition evaluated without decomposition or stored state. Every
// edge is applied to a window of the given retention (0 keeps everything)
// and each query's whole pattern is expanded around it; a match is recorded
// the first time it is found, if its span fits the query's window.
func naiveMatches(retention time.Duration, queries []*query.Graph, edges []graph.StreamEdge) []naiveMatch {
	dyn := graph.NewDynamic(retention)
	matchers := make([]*isomorphism.Matcher, len(queries))
	for i, q := range queries {
		matchers[i] = isomorphism.New(q)
	}
	seen := map[string]bool{}
	var out []naiveMatch
	for at, se := range edges {
		stored, err := dyn.Apply(se)
		if err != nil {
			continue
		}
		for i, q := range queries {
			for _, qe := range q.EdgeIDs() {
				if !q.Edge(qe).MatchesEdge(stored) {
					continue
				}
				for _, m := range matchers[i].LocalSearch(dyn.Graph(), q.EdgeIDs(), qe, stored) {
					nm := naiveMatch{query: q.Name(), sig: m.Signature(), at: at}
					if m.WithinWindow(q.Window()) && !seen[nm.key()] {
						seen[nm.key()] = true
						out = append(out, nm)
					}
				}
			}
		}
	}
	return out
}

// naiveMatchSets groups naiveMatches per query into matchSets' shape.
func naiveMatchSets(retention time.Duration, queries []*query.Graph, edges []graph.StreamEdge) map[string][]string {
	sets := map[string][]string{}
	for _, nm := range naiveMatches(retention, queries, edges) {
		sets[nm.query] = append(sets[nm.query], nm.sig)
	}
	for q := range sets {
		sort.Strings(sets[q])
	}
	return sets
}

// TestSharedPlansParity: the engine, whose queries share one DAG, emits per
// query exactly the naive-expansion oracle's match set, across strategies,
// on a stream dense enough to exercise joins, windows and pruning.
func TestSharedPlansParity(t *testing.T) {
	queries := []*query.Graph{
		smurfQuery(30 * time.Second),
		probeQuery(time.Minute),
		exfilQuery(2 * time.Minute),
	}
	edges := randomHostStream(42, 4000)
	want := naiveMatchSets(0, queries, edges)
	total := 0
	for _, w := range want {
		total += len(w)
	}
	if total == 0 {
		t.Fatalf("parity check vacuous: no matches at all")
	}
	for _, strat := range decompose.Strategies() {
		t.Run(string(strat), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PruneInterval = 64
			e := New(&cfg)
			for _, q := range queries {
				if _, err := e.RegisterQuery(q, WithStrategy(strat)); err != nil {
					t.Fatalf("register %s: %v", q.Name(), err)
				}
			}
			got := matchSets(t, e, edges)
			for _, q := range queries {
				g, w := got[q.Name()], want[q.Name()]
				if len(g) != len(w) {
					t.Fatalf("%s: engine emitted %d matches, the oracle finds %d", q.Name(), len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s: match set diverges at %d:\n  engine %s\n  oracle %s", q.Name(), i, g[i], w[i])
					}
				}
			}
		})
	}
}

// TestSharedPlansSharingVisible: overlapping queries must actually share —
// DAG nodes fewer than the sum of plan nodes, shared hits accumulating, and
// the mqo_shared_hits metric surfaced through Metrics.
func TestSharedPlansSharingVisible(t *testing.T) {
	e := New(nil)
	planNodes := 0
	for _, q := range []*query.Graph{smurfQuery(time.Minute), probeQuery(time.Minute), exfilQuery(time.Minute)} {
		reg, err := e.RegisterQuery(q, WithStrategy(decompose.StrategyEager))
		if err != nil {
			t.Fatal(err)
		}
		planNodes += reg.Plan().NumNodes()
	}
	m := e.Metrics()
	if m.MQO.Nodes >= planNodes {
		t.Fatalf("no structural sharing: %d DAG nodes for %d plan nodes", m.MQO.Nodes, planNodes)
	}
	if m.MQO.SharedNodes == 0 {
		t.Fatalf("no node marked shared")
	}
	for _, se := range randomHostStream(7, 1000) {
		e.ProcessEdge(se)
	}
	m = e.Metrics()
	if m.MQO.SharedHits == 0 {
		t.Fatalf("no shared hits after 1000 edges over overlapping queries")
	}
	if m.MQO.LocalSearches == 0 || m.LocalSearches != m.MQO.LocalSearches {
		t.Fatalf("DAG local searches not surfaced: engine=%d dag=%d", m.LocalSearches, m.MQO.LocalSearches)
	}
}

// TestSharedPlansChurn: register/unregister cycles interleaved with ingest
// must drop exactly the refcount-zero DAG nodes and leave survivors matching.
func TestSharedPlansChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PruneInterval = 32
	e := New(&cfg)
	if _, err := e.RegisterQuery(smurfQuery(0), WithStrategy(decompose.StrategyEager)); err != nil {
		t.Fatal(err)
	}
	baseNodes := e.Metrics().MQO.Nodes
	edges := randomHostStream(99, 2400)
	smurfMatches := uint64(0)
	for i, se := range edges {
		switch i % 400 {
		case 100:
			if _, err := e.RegisterQuery(probeQuery(0), WithStrategy(decompose.StrategyEager)); err != nil {
				t.Fatalf("edge %d: register probe: %v", i, err)
			}
			if got := e.Metrics().MQO.Nodes; got != baseNodes+2 {
				t.Fatalf("edge %d: nodes after probe attach = %d, want %d", i, got, baseNodes+2)
			}
		case 300:
			if err := e.UnregisterQuery("probe"); err != nil {
				t.Fatalf("edge %d: unregister probe: %v", i, err)
			}
			// Probe's dns leaf and join must be collected; the shared
			// icmp_echo_req leaf and the rest of smurf's nodes must stay.
			if got := e.Metrics().MQO.Nodes; got != baseNodes {
				t.Fatalf("edge %d: nodes after probe detach = %d, want %d", i, got, baseNodes)
			}
		}
		e.ProcessEdge(se)
	}
	reg, _ := e.Registration("smurf")
	smurfMatches = reg.Matches()
	if smurfMatches == 0 {
		t.Fatalf("smurf never matched across churn")
	}
	// The surviving query's match stream must be the oracle's.
	if want := uint64(len(naiveMatchSets(0, []*query.Graph{smurfQuery(0)}, edges)["smurf"])); want != smurfMatches {
		t.Fatalf("churn changed smurf's match count: %d with churn, the oracle finds %d", smurfMatches, want)
	}
	if err := e.UnregisterQuery("smurf"); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().MQO.Nodes; got != 0 {
		t.Fatalf("nodes after last unregister = %d, want 0", got)
	}
}

// TestSharedPlansReplan: ReplanNow swaps the query's attachment without
// losing or duplicating matches, and keeps sharing intact for the untouched
// queries.
func TestSharedPlansReplan(t *testing.T) {
	e := New(nil)
	var got []string
	e.Subscribe("smurf", MatchSinkFunc(func(ev MatchEvent) { got = append(got, ev.Match.Signature()) }))
	if _, err := e.RegisterQuery(smurfQuery(time.Minute), WithStrategy(decompose.StrategySelective)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery(probeQuery(time.Minute), WithStrategy(decompose.StrategyEager)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(6000, 0))
	e.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base))
	e.ProcessEdge(hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)))
	e.ProcessEdge(hostEdge(3, 5, 6, "icmp_echo_req", base.Add(2*time.Second)))
	if len(got) != 1 {
		t.Fatalf("pre-replan matches: %v", got)
	}
	if err := e.ReplanNow("smurf", decompose.StrategyEager); err != nil {
		t.Fatalf("ReplanNow: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("replan replay duplicated emissions: %d", len(got))
	}
	reg, _ := e.Registration("smurf")
	if reg.PlanGeneration() != 2 || reg.Replans() != 1 {
		t.Fatalf("plan generation/replans = %d/%d", reg.PlanGeneration(), reg.Replans())
	}
	if reg.Attachment() == nil || reg.Attachment().Plan().Strategy != decompose.StrategyEager {
		t.Fatalf("attachment not swapped onto the eager plan")
	}
	// The dangling request must complete post-swap (state carried over).
	e.ProcessEdge(hostEdge(4, 6, 7, "icmp_echo_reply", base.Add(3*time.Second)))
	if len(got) != 2 {
		t.Fatalf("post-swap completion lost: %v", got)
	}
	m := e.Metrics()
	if m.Replans != 1 {
		t.Fatalf("Metrics.Replans = %d", m.Replans)
	}
	// smurf (eager) and probe (eager) now share the echo_req leaf.
	if m.MQO.SharedNodes == 0 {
		t.Fatalf("no sharing between smurf and probe after swap onto eager")
	}
}

// TestSharedPlansWindowParityAfterPrune: pruning never drops a partial match
// that could still complete, nor lets one complete that the definition rules
// out (windowed and window-less queries together, with expiry-driven pruning
// in play). The windowed query must emit exactly the oracle's set. The
// window-less one is bounded on both sides: it finds every match whose edges
// were all retained when its last edge arrived — the oracle at the engine's
// retention — and nothing the oracle with unbounded retention would not; a
// partial binding an edge that expired since the last sweep may still
// complete.
func TestSharedPlansWindowParityAfterPrune(t *testing.T) {
	const retention = 90 * time.Second
	queries := []*query.Graph{smurfQuery(10 * time.Second), probeQuery(0)}
	cfg := DefaultConfig()
	cfg.Retention = retention
	cfg.PruneInterval = 16
	e := New(&cfg)
	for _, q := range queries {
		if _, err := e.RegisterQuery(q, WithStrategy(decompose.StrategyEager)); err != nil {
			t.Fatal(err)
		}
	}
	edges := randomHostStream(1234, 3000)
	got := matchSets(t, e, edges)
	retained := naiveMatchSets(retention, queries, edges)
	unbounded := naiveMatchSets(0, queries, edges)
	if len(retained["smurf"]) == 0 || len(retained["probe"]) == 0 {
		t.Fatalf("vacuous: smurf %d, probe %d matches", len(retained["smurf"]), len(retained["probe"]))
	}
	if !slices.Equal(got["smurf"], retained["smurf"]) {
		t.Fatalf("smurf diverged: engine %d matches, the oracle %d", len(got["smurf"]), len(retained["smurf"]))
	}
	for _, sig := range retained["probe"] {
		if _, ok := slices.BinarySearch(got["probe"], sig); !ok {
			t.Fatalf("probe missed %s, whose edges were all retained", sig)
		}
	}
	for _, sig := range got["probe"] {
		if _, ok := slices.BinarySearch(unbounded["probe"], sig); !ok {
			t.Fatalf("probe emitted %s, which is no match", sig)
		}
	}
	if m := e.Metrics(); m.PartialsPruned == 0 {
		t.Fatalf("nothing pruned: the test exercises no pruning")
	}
}
