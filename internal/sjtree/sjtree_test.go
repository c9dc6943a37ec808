package sjtree

import (
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
)

func smurfQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("smurf").
		Window(window).
		Vertex("attacker", "Host").
		Vertex("amp", "Host").
		Vertex("victim", "Host").
		Edge("attacker", "amp", "icmp_echo_req").
		Edge("amp", "victim", "icmp_echo_reply").
		MustBuild()
}

func mustPlan(t *testing.T, q *query.Graph, s decompose.Strategy) *decompose.Plan {
	t.Helper()
	p, err := decompose.NewPlanner(nil).Plan(q, s)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return p
}

func mustTree(t *testing.T, q *query.Graph, s decompose.Strategy) *Tree {
	t.Helper()
	tr, err := New(mustPlan(t, q, s))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

// reqMatch and replyMatch build primitive matches for the smurf query's two
// pattern edges using the given data vertex ids and timestamp.
func reqMatch(attacker, amp graph.VertexID, edge graph.EdgeID, ts graph.Timestamp) *match.Match {
	return smurfPrimitive(0, attacker, amp, edge, ts)
}

func replyMatch(amp, victim graph.VertexID, edge graph.EdgeID, ts graph.Timestamp) *match.Match {
	return smurfPrimitive(1, amp, victim, edge, ts)
}

// smurfPrimitive binds the smurf query's pattern edge qe, which runs from
// pattern vertex qe to qe+1, to a data edge from src to dst.
func smurfPrimitive(qe query.EdgeID, src, dst graph.VertexID, edge graph.EdgeID, ts graph.Timestamp) *match.Match {
	m := match.NewForQuery(smurfQuery(0))
	m.BindVertex(query.VertexID(qe), src)
	m.BindVertex(query.VertexID(qe)+1, dst)
	m.BindEdge(qe, edge, ts)
	return m
}

func TestTreeStructureMirrorsPlan(t *testing.T) {
	q := smurfQuery(0)
	tr := mustTree(t, q, decompose.StrategyEager)
	if tr.Query() != q {
		t.Fatalf("Query() wrong")
	}
	if tr.Plan().Strategy != decompose.StrategyEager {
		t.Fatalf("Plan() wrong")
	}
	if len(tr.Leaves()) != 2 {
		t.Fatalf("expected 2 leaves, got %d", len(tr.Leaves()))
	}
	if tr.Root().IsLeaf() {
		t.Fatalf("root should be a join node")
	}
	if !tr.Root().IsRoot() || tr.Leaves()[0].IsRoot() {
		t.Fatalf("IsRoot flags wrong")
	}
	if len(tr.Root().CutVertices()) != 1 {
		t.Fatalf("root cut vertices = %v", tr.Root().CutVertices())
	}
	for _, l := range tr.Leaves() {
		if len(l.Edges()) != 1 {
			t.Fatalf("eager leaf should cover one edge")
		}
	}
}

func TestInsertJoinProducesCompleteMatch(t *testing.T) {
	q := smurfQuery(0)
	tr := mustTree(t, q, decompose.StrategyEager)
	reqLeaf, replyLeaf := tr.Leaves()[0], tr.Leaves()[1]

	// Insert the request half: no completion yet.
	out := tr.Insert(reqLeaf, reqMatch(1, 2, 100, 10))
	if len(out) != 0 {
		t.Fatalf("premature completion: %v", out)
	}
	if tr.PartialMatchCount() != 1 {
		t.Fatalf("PartialMatchCount = %d", tr.PartialMatchCount())
	}
	// Insert a reply through a different amplifier: still nothing.
	out = tr.Insert(replyLeaf, replyMatch(9, 3, 101, 11))
	if len(out) != 0 {
		t.Fatalf("non-joining match completed: %v", out)
	}
	// Insert the matching reply through amplifier 2: completes.
	out = tr.Insert(replyLeaf, replyMatch(2, 3, 102, 12))
	if len(out) != 1 {
		t.Fatalf("expected 1 complete match, got %d", len(out))
	}
	m := out[0]
	if !m.Complete(q) {
		t.Fatalf("emitted match is not complete: %v", m)
	}
	if v, _ := m.Vertex(1); v != 2 {
		t.Fatalf("amplifier binding wrong: %v", m)
	}
	if tr.CompleteCount() != 1 {
		t.Fatalf("CompleteCount = %d", tr.CompleteCount())
	}
}

func TestInsertRespectsWindow(t *testing.T) {
	q := smurfQuery(5 * time.Nanosecond)
	tr := mustTree(t, q, decompose.StrategyEager)
	reqLeaf, replyLeaf := tr.Leaves()[0], tr.Leaves()[1]
	tr.Insert(reqLeaf, reqMatch(1, 2, 100, 10))
	// Reply 100ns later: joined span exceeds the 5ns window.
	out := tr.Insert(replyLeaf, replyMatch(2, 3, 101, 110))
	if len(out) != 0 {
		t.Fatalf("out-of-window match reported")
	}
	st := tr.Stats()
	if st.WindowDrops == 0 {
		t.Fatalf("window drop not counted")
	}
	// A timely reply still works.
	out = tr.Insert(replyLeaf, replyMatch(2, 3, 102, 13))
	if len(out) != 1 {
		t.Fatalf("in-window match not reported")
	}
}

func TestInsertDeduplicates(t *testing.T) {
	q := smurfQuery(0)
	tr := mustTree(t, q, decompose.StrategyEager)
	reqLeaf := tr.Leaves()[0]
	m := reqMatch(1, 2, 100, 10)
	tr.Insert(reqLeaf, m)
	tr.Insert(reqLeaf, m.Clone())
	if tr.PartialMatchCount() != 1 {
		t.Fatalf("duplicate stored: %d", tr.PartialMatchCount())
	}
	st := tr.Stats()
	if st.DuplicateDrops != 1 {
		t.Fatalf("duplicate drop not counted: %+v", st)
	}
}

func TestCompleteMatchDeduplicated(t *testing.T) {
	q := smurfQuery(0)
	tr := mustTree(t, q, decompose.StrategyEager)
	reqLeaf, replyLeaf := tr.Leaves()[0], tr.Leaves()[1]
	tr.Insert(reqLeaf, reqMatch(1, 2, 100, 10))
	first := tr.Insert(replyLeaf, replyMatch(2, 3, 101, 11))
	if len(first) != 1 {
		t.Fatalf("setup failed")
	}
	// Re-inserting the same reply primitive is dropped at the leaf, so no
	// duplicate completion can occur.
	second := tr.Insert(replyLeaf, replyMatch(2, 3, 101, 11))
	if len(second) != 0 {
		t.Fatalf("duplicate completion emitted")
	}
	if tr.CompleteCount() != 1 {
		t.Fatalf("CompleteCount = %d", tr.CompleteCount())
	}
}

// TestTreeEmitsEachCompleteMatchOnceAcrossChunks: a tree whose emitted set
// holds several arena chunks of matches emits none of them again when they
// reach the root a second time — however long after, since the set never
// forgets — and still emits a new one.
func TestTreeEmitsEachCompleteMatchOnceAcrossChunks(t *testing.T) {
	tr := mustTree(t, smurfQuery(0), decompose.StrategyEager)
	const n = 5000 // several arena chunks
	completeMatch := func(i int) *match.Match {
		base := graph.VertexID(10 * i)
		req := reqMatch(base, base+1, graph.EdgeID(2*i), graph.Timestamp(i))
		return req.Join(replyMatch(base+1, base+2, graph.EdgeID(2*i+1), graph.Timestamp(i+1)))
	}
	for i := 0; i < n; i++ {
		if out := tr.Insert(tr.Root(), completeMatch(i)); len(out) != 1 {
			t.Fatalf("match %d emitted %d times", i, len(out))
		}
	}
	if chunks := len(tr.emitted.set.chunks); chunks < 4 {
		t.Fatalf("%d matches fill only %d arena chunks", n, chunks)
	}
	for i := 0; i < n; i++ {
		if out := tr.Insert(tr.Root(), completeMatch(i)); len(out) != 0 {
			t.Fatalf("match %d emitted again", i)
		}
	}
	if out := tr.Insert(tr.Root(), completeMatch(n)); len(out) != 1 {
		t.Fatal("a new match was not emitted")
	}
	if tr.CompleteCount() != n+1 {
		t.Fatalf("CompleteCount = %d, want %d", tr.CompleteCount(), n+1)
	}
}

func TestInsertNilArguments(t *testing.T) {
	q := smurfQuery(0)
	tr := mustTree(t, q, decompose.StrategyEager)
	if out := tr.Insert(nil, reqMatch(1, 2, 1, 1)); out != nil {
		t.Fatalf("nil node should be ignored")
	}
	if out := tr.Insert(tr.Leaves()[0], nil); out != nil {
		t.Fatalf("nil match should be ignored")
	}
}

func TestPruneByCutoff(t *testing.T) {
	q := smurfQuery(0)
	tr := mustTree(t, q, decompose.StrategyEager)
	reqLeaf := tr.Leaves()[0]
	tr.Insert(reqLeaf, reqMatch(1, 2, 100, 10))
	tr.Insert(reqLeaf, reqMatch(4, 5, 101, 200))
	if tr.PartialMatchCount() != 2 {
		t.Fatalf("setup failed")
	}
	removed := tr.Prune(150)
	if removed != 1 {
		t.Fatalf("Prune removed %d, want 1", removed)
	}
	if tr.PartialMatchCount() != 1 {
		t.Fatalf("PartialMatchCount = %d after prune", tr.PartialMatchCount())
	}
	// The pruned match's signature must be forgotten so a re-arrival can be
	// stored again (e.g. after an out-of-order replay).
	tr.Insert(reqLeaf, reqMatch(1, 2, 100, 10))
	if tr.PartialMatchCount() != 2 {
		t.Fatalf("pruned signature still blocks re-insertion")
	}
	if tr.Stats().PrunedTotal != 1 {
		t.Fatalf("PrunedTotal = %d", tr.Stats().PrunedTotal)
	}
}

func TestPruneExpiredEdges(t *testing.T) {
	q := smurfQuery(0)
	tr := mustTree(t, q, decompose.StrategyEager)
	reqLeaf := tr.Leaves()[0]
	tr.Insert(reqLeaf, reqMatch(1, 2, 100, 10))
	tr.Insert(reqLeaf, reqMatch(4, 5, 101, 20))
	removed := tr.PruneExpiredEdges(map[graph.EdgeID]struct{}{100: {}})
	if removed != 1 {
		t.Fatalf("PruneExpiredEdges removed %d, want 1", removed)
	}
	if tr.PartialMatchCount() != 1 {
		t.Fatalf("PartialMatchCount = %d", tr.PartialMatchCount())
	}
	if tr.PruneExpiredEdges(map[graph.EdgeID]struct{}{99999: {}}) != 0 {
		t.Fatalf("pruning an unknown edge should remove nothing")
	}
}

func TestLazyPlanSingleLeafIsRoot(t *testing.T) {
	q := smurfQuery(0)
	// Lazy pairs both edges into one primitive, so the tree is a single
	// root/leaf node and every primitive match is already complete.
	tr := mustTree(t, q, decompose.StrategyLazy)
	if len(tr.Leaves()) != 1 || !tr.Root().IsLeaf() {
		t.Fatalf("lazy smurf plan should be a single node")
	}
	full := match.New()
	full.BindVertex(0, 1)
	full.BindVertex(1, 2)
	full.BindVertex(2, 3)
	full.BindEdge(0, 100, 10)
	full.BindEdge(1, 101, 11)
	out := tr.Insert(tr.Root(), full)
	if len(out) != 1 || tr.CompleteCount() != 1 {
		t.Fatalf("complete primitive not emitted: %v", out)
	}
	// An incomplete match inserted at the root must be rejected.
	partial := match.New()
	partial.BindVertex(0, 1)
	partial.BindEdge(0, 200, 10)
	if out := tr.Insert(tr.Root(), partial); len(out) != 0 {
		t.Fatalf("incomplete root insertion accepted")
	}
}

func TestTreeInvalidPlanRejected(t *testing.T) {
	q := smurfQuery(0)
	bad := &decompose.Plan{Query: q, Strategy: decompose.StrategyEager}
	if _, err := New(bad); err == nil {
		t.Fatalf("invalid plan accepted")
	}
}

func TestStatsAndString(t *testing.T) {
	q := smurfQuery(0)
	tr := mustTree(t, q, decompose.StrategyEager)
	tr.Insert(tr.Leaves()[0], reqMatch(1, 2, 100, 10))
	st := tr.Stats()
	if st.NodeCount != 3 || st.LeafCount != 2 {
		t.Fatalf("Stats counts wrong: %+v", st)
	}
	if st.PartialMatches != 1 {
		t.Fatalf("Stats partials wrong: %+v", st)
	}
	if len(st.PerNodeStored) != 3 {
		t.Fatalf("per-node stats missing: %+v", st)
	}
	s := tr.String()
	if !strings.Contains(s, "SJ-Tree") || !strings.Contains(s, "leaf") {
		t.Fatalf("String() = %q", s)
	}
}

// TestIncrementalMatchesOfflineGroundTruth replays a small stream through
// leaf-local searches + SJ-Tree insertion (the engine's inner loop) and
// checks the set of complete matches equals the offline matcher's results,
// for every decomposition strategy.
func TestIncrementalMatchesOfflineGroundTruth(t *testing.T) {
	q := query.NewBuilder("wedge4").
		Vertex("a1", "Article").
		Vertex("a2", "Article").
		Vertex("k", "Keyword").
		Vertex("l", "Location").
		Edge("a1", "k", "mentions").
		Edge("a2", "k", "mentions").
		Edge("a1", "l", "located").
		Edge("a2", "l", "located").
		MustBuild()

	// Data: 3 articles sharing keyword 100; articles 1,2 share location 200,
	// article 3 uses location 201.
	typeOf := map[graph.VertexID]string{
		1: "Article", 2: "Article", 3: "Article",
		100: "Keyword", 200: "Location", 201: "Location",
	}
	edges := []graph.Edge{
		{ID: 1, Source: 1, Target: 100, Type: "mentions", Timestamp: 1},
		{ID: 2, Source: 1, Target: 200, Type: "located", Timestamp: 2},
		{ID: 3, Source: 2, Target: 100, Type: "mentions", Timestamp: 3},
		{ID: 4, Source: 2, Target: 200, Type: "located", Timestamp: 4},
		{ID: 5, Source: 3, Target: 100, Type: "mentions", Timestamp: 5},
		{ID: 6, Source: 3, Target: 201, Type: "located", Timestamp: 6},
	}

	for _, strategy := range decompose.Strategies() {
		t.Run(string(strategy), func(t *testing.T) {
			d := graph.NewDynamic(0)
			g := d.Graph()
			tr := mustTree(t, q, strategy)
			matcher := isomorphism.New(q)

			incremental := make(map[string]bool)
			for _, e := range edges {
				de, err := d.Apply(graph.StreamEdge{Edge: e, SourceType: typeOf[e.Source], TargetType: typeOf[e.Target]})
				if err != nil {
					t.Fatal(err)
				}
				// Engine inner loop: every leaf primitive, every pattern edge
				// in the primitive, local search seeded by the new edge.
				for _, leaf := range tr.Leaves() {
					for _, qe := range leaf.Edges() {
						for _, pm := range matcher.LocalSearch(g, leaf.Edges(), qe, de) {
							for _, cm := range tr.Insert(leaf, pm) {
								incremental[cm.Signature()] = true
							}
						}
					}
				}
			}

			offline := matcher.FindAll(g, q.EdgeIDs(), 0)
			offlineSigs := make(map[string]bool)
			for _, m := range offline {
				offlineSigs[m.Signature()] = true
			}
			if len(offlineSigs) == 0 {
				t.Fatalf("offline ground truth is empty; bad fixture")
			}
			if len(incremental) != len(offlineSigs) {
				t.Fatalf("incremental found %d matches, offline %d (strategy %s)\ntree: %s",
					len(incremental), len(offlineSigs), strategy, tr.String())
			}
			for sig := range offlineSigs {
				if !incremental[sig] {
					t.Fatalf("offline match %q missed by incremental search (strategy %s)", sig, strategy)
				}
			}
		})
	}
}
