package decompose

import (
	"errors"
	"strings"
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stats"
)

func newsQuery() *query.Graph {
	return query.NewBuilder("news").
		Vertex("a1", "Article").
		Vertex("a2", "Article").
		Vertex("k", "Keyword").
		Vertex("l", "Location").
		Edge("a1", "k", "mentions").
		Edge("a2", "k", "mentions").
		Edge("a1", "l", "located").
		Edge("a2", "l", "located").
		MustBuild()
}

func smurfQuery() *query.Graph {
	return query.NewBuilder("smurf").
		Vertex("attacker", "Host").
		Vertex("amp", "Host").
		Vertex("victim", "Host").
		Edge("attacker", "amp", "icmp_echo_req").
		Edge("amp", "victim", "icmp_echo_reply").
		MustBuild()
}

// newsSummary mirrors the stats package fixture: mentions are common,
// located edges are rare.
func newsSummary() *stats.Summary {
	s := stats.NewSummary()
	d := graph.NewDynamic(0)
	id := graph.EdgeID(0)
	observe := func(se graph.StreamEdge) {
		id++
		se.Edge.ID = id
		if _, err := d.Apply(se); err != nil {
			panic(err)
		}
		s.Observe(se, d.Graph())
	}
	for i := 0; i < 80; i++ {
		observe(graph.StreamEdge{
			Edge:       graph.Edge{Source: graph.VertexID(i), Target: graph.VertexID(1000 + i%20), Type: "mentions"},
			SourceType: "Article", TargetType: "Keyword",
		})
	}
	for i := 0; i < 20; i++ {
		observe(graph.StreamEdge{
			Edge:       graph.Edge{Source: graph.VertexID(i), Target: graph.VertexID(2000 + i%3), Type: "located"},
			SourceType: "Article", TargetType: "Location",
		})
	}
	return s
}

func TestPlanAllStrategiesValidate(t *testing.T) {
	planner := NewPlanner(stats.NewEstimator(newsSummary()))
	for _, q := range []*query.Graph{newsQuery(), smurfQuery()} {
		for _, s := range Strategies() {
			t.Run(q.Name()+"/"+string(s), func(t *testing.T) {
				p, err := planner.Plan(q, s)
				if err != nil {
					t.Fatalf("Plan: %v", err)
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				if p.Strategy != s {
					t.Fatalf("strategy not recorded")
				}
				if len(p.Root.Edges) != q.NumEdges() {
					t.Fatalf("root coverage wrong")
				}
			})
		}
	}
}

func TestPlanEagerLeavesAreSingleEdges(t *testing.T) {
	planner := NewPlanner(nil)
	p, err := planner.Plan(newsQuery(), StrategyEager)
	if err != nil {
		t.Fatal(err)
	}
	leaves := p.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("eager plan should have 4 leaves, got %d", len(leaves))
	}
	for _, l := range leaves {
		if len(l.Edges) != 1 {
			t.Fatalf("eager leaf has %d edges", len(l.Edges))
		}
	}
	// Left-deep over 4 leaves: 7 nodes, depth 4.
	if p.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d, want 7", p.NumNodes())
	}
	if p.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", p.Depth())
	}
}

func TestPlanLazyLeavesAreWedges(t *testing.T) {
	planner := NewPlanner(nil)
	p, err := planner.Plan(newsQuery(), StrategyLazy)
	if err != nil {
		t.Fatal(err)
	}
	leaves := p.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("lazy plan should pair the 4 edges into 2 leaves, got %d", len(leaves))
	}
	for _, l := range leaves {
		if len(l.Edges) != 2 {
			t.Fatalf("lazy leaf has %d edges", len(l.Edges))
		}
	}
}

func TestPlanSelectivePutsRarePrimitiveFirst(t *testing.T) {
	est := stats.NewEstimator(newsSummary())
	planner := NewPlanner(est)
	q := newsQuery()
	p, err := planner.Plan(q, StrategySelective)
	if err != nil {
		t.Fatal(err)
	}
	// The deepest (first-joined) leaf is the leftmost; walking Left pointers
	// from the root reaches it. It must contain a "located" edge because
	// located edges are 4x rarer than mentions.
	n := p.Root
	for !n.IsLeaf() {
		n = n.Left
	}
	foundLocated := false
	for _, eid := range n.Edges {
		if q.Edge(eid).Type == "located" {
			foundLocated = true
		}
	}
	if !foundLocated {
		t.Fatalf("selective plan did not anchor on the rare 'located' primitive: %v", p.String())
	}
}

func TestPlanSelectiveWithoutEstimatorUsesHeuristic(t *testing.T) {
	planner := NewPlanner(nil)
	q := query.NewBuilder("h").
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "").
		Edge("a", "b", "rare", query.Gt("bytes", graph.Int(1))).
		Edge("b", "c", "").
		MustBuild()
	p, err := planner.Plan(q, StrategySelective)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanBalancedShallowerThanLeftDeep(t *testing.T) {
	// A path of 8 edges: balanced tree must be shallower than eager left-deep.
	b := query.NewBuilder("path")
	names := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"}
	for _, n := range names {
		b.Vertex(n, "Host")
	}
	for i := 0; i < 8; i++ {
		b.Edge(names[i], names[i+1], "flow")
	}
	q := b.MustBuild()
	planner := NewPlanner(nil)
	balanced, err := planner.Plan(q, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := planner.Plan(q, StrategyEager)
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Depth() >= eager.Depth() {
		t.Fatalf("balanced depth %d should be < eager depth %d", balanced.Depth(), eager.Depth())
	}
}

func TestPlanCutVertices(t *testing.T) {
	planner := NewPlanner(nil)
	q := smurfQuery()
	p, err := planner.Plan(q, StrategyEager)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.IsLeaf() {
		t.Fatalf("two-edge query with eager strategy must have a join root")
	}
	if len(p.Root.CutVertices) != 1 {
		t.Fatalf("cut vertices = %v, want exactly the amplifier", p.Root.CutVertices)
	}
	amp, _ := q.VertexByName("amp")
	if p.Root.CutVertices[0] != amp.ID {
		t.Fatalf("cut vertex is %v, want %v", p.Root.CutVertices[0], amp.ID)
	}
}

func TestPlanSingleEdgeQuery(t *testing.T) {
	q := query.NewBuilder("one").
		Vertex("a", "Host").Vertex("b", "Host").
		Edge("a", "b", "flow").
		MustBuild()
	planner := NewPlanner(nil)
	for _, s := range Strategies() {
		p, err := planner.Plan(q, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !p.Root.IsLeaf() || p.NumNodes() != 1 || p.Depth() != 1 {
			t.Fatalf("%s: single-edge query should be a single leaf", s)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	planner := NewPlanner(nil)
	if _, err := planner.Plan(nil, StrategyEager); err == nil {
		t.Fatalf("nil query accepted")
	}
	if _, err := planner.Plan(newsQuery(), Strategy("bogus")); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("unknown strategy accepted: %v", err)
	}
}

func TestPlanValidateDetectsCorruption(t *testing.T) {
	planner := NewPlanner(nil)
	q := newsQuery()
	p, err := planner.Plan(q, StrategyEager)
	if err != nil {
		t.Fatal(err)
	}
	// Remove an edge from the root: coverage violation.
	savedEdges := p.Root.Edges
	p.Root.Edges = p.Root.Edges[:len(p.Root.Edges)-1]
	if err := p.Validate(); !errors.Is(err, ErrPlanOverlap) && !errors.Is(err, ErrPlanCoverage) {
		t.Fatalf("corrupted coverage not detected: %v", err)
	}
	p.Root.Edges = savedEdges

	// Duplicate an edge in a child: overlap violation.
	savedLeft := p.Root.Left
	p.Root.Left = &Node{Edges: append([]query.EdgeID(nil), p.Root.Right.Edges...)}
	if err := p.Validate(); err == nil {
		t.Fatalf("overlapping children not detected")
	}
	p.Root.Left = savedLeft

	// Remove a child: degenerate internal node.
	savedRight := p.Root.Right
	p.Root.Right = nil
	if err := p.Validate(); !errors.Is(err, ErrPlanDegenerate) {
		t.Fatalf("degenerate node not detected: %v", err)
	}
	p.Root.Right = savedRight

	var empty *Plan
	if err := empty.Validate(); !errors.Is(err, ErrPlanEmpty) {
		t.Fatalf("nil plan not detected: %v", err)
	}
}

func TestPlanValidateDisconnectedNode(t *testing.T) {
	q := newsQuery()
	// Hand-build an invalid plan whose leaf {0,3} is disconnected
	// (a1-k mentions and a2-l located share no vertex).
	bad := &Plan{
		Query: q,
		Root: &Node{
			Edges: q.EdgeIDs(),
			Left:  &Node{Edges: []query.EdgeID{0, 3}},
			Right: &Node{Edges: []query.EdgeID{1, 2}},
		},
		Strategy: StrategyLazy,
	}
	if err := bad.Validate(); !errors.Is(err, ErrPlanDisconnected) {
		t.Fatalf("disconnected leaf not detected: %v", err)
	}
}

func TestPlanStringMentionsStrategyAndCut(t *testing.T) {
	planner := NewPlanner(stats.NewEstimator(newsSummary()))
	p, err := planner.Plan(newsQuery(), StrategySelective)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "selective") || !strings.Contains(s, "leaf") || !strings.Contains(s, "cut=") {
		t.Fatalf("String() missing expected content:\n%s", s)
	}
}

func TestStrategiesList(t *testing.T) {
	ss := Strategies()
	if len(ss) != 4 || ss[0] != StrategySelective {
		t.Fatalf("Strategies() = %v", ss)
	}
}
