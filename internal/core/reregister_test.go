package core

import (
	"errors"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/query"
)

// burstQuery is a 3-edge query whose selective plan has two leaves — enough
// structure for a partial match to live across a change of plan.
func burstQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("burst").
		Window(window).
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "Host").
		Edge("a", "b", "scan").
		Edge("a", "c", "infect").
		Edge("a", "c", "flow").
		MustBuild()
}

// reregister moves a registered query onto another strategy's plan the one
// way there is: it unregisters the query and registers it again.
func reregister(t *testing.T, e *Engine, name string, s decompose.Strategy) *mqo.Attachment {
	t.Helper()
	old, ok := e.Registration(name)
	if !ok {
		t.Fatalf("%q is not registered", name)
	}
	if err := e.UnregisterQuery(name); err != nil {
		t.Fatal(err)
	}
	reg, err := e.RegisterQuery(old.Plan().Query, WithStrategy(s))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestReregisterBoundaryMatchStraddlingEmitsOnce: a match whose edges
// straddle a re-registration under another plan — some edges ingested under
// the old plan, the rest under the new — is emitted exactly once. The
// registration backfills the new plan's DAG nodes from the retained window
// to rebuild the partial state they need.
func TestReregisterBoundaryMatchStraddlingEmitsOnce(t *testing.T) {
	e := New(&Config{Retention: time.Minute})
	reg, err := e.RegisterQuery(burstQuery(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	var emitted []MatchEvent
	e.Subscribe("", MatchSinkFunc(func(ev MatchEvent) { emitted = append(emitted, ev) }))

	ts := graph.Timestamp(0)
	// Two of the three edges arrive under the first plan.
	e.ProcessEdge(hostEdge(1, 1, 2, "scan", ts.Add(time.Second)))
	e.ProcessEdge(hostEdge(2, 1, 3, "infect", ts.Add(2*time.Second)))
	if len(emitted) != 0 {
		t.Fatalf("no complete match yet, emitted %d", len(emitted))
	}
	if reg.PartialMatches() == 0 {
		t.Fatalf("expected stored partials before the re-registration")
	}

	// Re-register under a structurally different plan.
	reg = reregister(t, e, "burst", decompose.StrategyEager)
	if reg.Plan().Strategy != decompose.StrategyEager {
		t.Fatalf("strategy not changed: %s", reg.Plan().Strategy)
	}
	if reg.PartialMatches() == 0 {
		t.Fatalf("backfill did not rebuild partial state under the new plan")
	}

	// The final edge arrives under the new plan: the straddling match must
	// complete exactly once.
	e.ProcessEdge(hostEdge(3, 1, 3, "flow", ts.Add(3*time.Second)))
	if len(emitted) != 1 {
		t.Fatalf("straddling match emitted %d times, want 1", len(emitted))
	}
	if m := e.Metrics(); m.MatchesEmitted != 1 || queryMatches(e, "burst") != 1 {
		t.Fatalf("match counters: engine %d, registration %d", m.MatchesEmitted, queryMatches(e, "burst"))
	}
}

// TestReregisterAfterEmissionDoesNotDuplicate: a match fully emitted before
// a re-registration must not be re-emitted when the backfill re-derives it
// under the new plan: a registration delivers nothing.
func TestReregisterAfterEmissionDoesNotDuplicate(t *testing.T) {
	e := New(&Config{Retention: time.Minute})
	if _, err := e.RegisterQuery(burstQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	emitted := 0
	e.Subscribe("", MatchSinkFunc(func(MatchEvent) { emitted++ }))

	ts := graph.Timestamp(0)
	e.ProcessEdge(hostEdge(1, 1, 2, "scan", ts.Add(time.Second)))
	e.ProcessEdge(hostEdge(2, 1, 3, "infect", ts.Add(2*time.Second)))
	e.ProcessEdge(hostEdge(3, 1, 3, "flow", ts.Add(3*time.Second)))
	if emitted != 1 {
		t.Fatalf("expected the complete match before the re-registration, got %d", emitted)
	}

	for _, strat := range []decompose.Strategy{decompose.StrategyEager, decompose.StrategySelective, decompose.StrategyBalanced} {
		reregister(t, e, "burst", strat)
		if emitted != 1 {
			t.Fatalf("backfill under %s re-emitted the match: %d", strat, emitted)
		}
	}
	// Neither counter may have drifted: the engine's still counts the one
	// match, the last registration's none.
	if m := e.Metrics(); m.MatchesEmitted != 1 || queryMatches(e, "burst") != 0 {
		t.Fatalf("match counters drifted: engine %d, registration %d", m.MatchesEmitted, queryMatches(e, "burst"))
	}
}

// TestRefusedRegistrationChangesNothing covers the operational edges of
// moving a query between plans: an unknown name cannot be unregistered, and
// a registration refused — an unknown strategy, a name already taken —
// leaves the registrations, the DAG and the retention as they were.
func TestRefusedRegistrationChangesNothing(t *testing.T) {
	e := New(&Config{Retention: time.Minute})
	if err := e.UnregisterQuery("nope"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("err = %v, want ErrUnknownQuery", err)
	}
	if _, err := e.RegisterQuery(burstQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	e.ProcessEdge(hostEdge(1, 1, 2, "scan", graph.Timestamp(0).Add(time.Second)))
	before := e.Metrics()
	wide := burstQuery(time.Hour)
	if _, err := e.RegisterQuery(wide, WithStrategy("bogus")); !errors.Is(err, ErrDuplicateQuery) {
		t.Fatalf("err = %v, want ErrDuplicateQuery", err)
	}
	other := query.NewBuilder("other").Window(time.Hour).
		Vertex("a", "Host").Vertex("b", "Host").Edge("a", "b", "scan").MustBuild()
	if _, err := e.RegisterQuery(other, WithStrategy("bogus")); !errors.Is(err, decompose.ErrUnknownStrategy) {
		t.Fatalf("err = %v, want ErrUnknownStrategy", err)
	}
	after := e.Metrics()
	if got := e.Registrations(); len(got) != 1 || got[0] != "burst" {
		t.Fatalf("registrations after refusals: %v", got)
	}
	if after.MQO.Nodes != before.MQO.Nodes || after.PartialMatches != before.PartialMatches {
		t.Fatalf("refusals changed the DAG: %d nodes, %d partials; were %d, %d",
			after.MQO.Nodes, after.PartialMatches, before.MQO.Nodes, before.PartialMatches)
	}
	if w := e.Graph().Window(); w != time.Minute {
		t.Fatalf("refusals widened the retention to %v", w)
	}
}

// TestReregisterRestartsTheQuerysView: a query moved to another plan by
// re-registration is reported as what it now is — its new strategy and plan
// shape in Metrics, its match count from zero (UnregisterQuery forgot the
// old series) — while the engine's totals run on.
func TestReregisterRestartsTheQuerysView(t *testing.T) {
	e := New(&Config{Retention: time.Minute})
	first, err := e.RegisterQuery(burstQuery(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	burst := func(id graph.EdgeID, a graph.VertexID, at time.Duration) {
		ts := graph.Timestamp(0).Add(at)
		e.ProcessEdge(hostEdge(id, a, a+1, "scan", ts))
		e.ProcessEdge(hostEdge(id+1, a, a+2, "infect", ts.Add(time.Second)))
		e.ProcessEdge(hostEdge(id+2, a, a+2, "flow", ts.Add(2*time.Second)))
	}
	burst(1, 10, 0)
	if n := queryMatches(e, "burst"); n != 1 {
		t.Fatalf("%d matches before the move, want 1", n)
	}
	reg := reregister(t, e, "burst", decompose.StrategyEager)
	if reg.Plan().NumNodes() == first.Plan().NumNodes() {
		t.Fatalf("eager and selective plans of the same shape (%d nodes); the test proves nothing", reg.Plan().NumNodes())
	}
	view := func() (Metrics, QueryMetrics) {
		m := e.Metrics()
		if len(m.Queries) != 1 || m.Registrations != 1 {
			t.Fatalf("%d queries, %d registrations", len(m.Queries), m.Registrations)
		}
		return m, m.Queries[0]
	}
	m, q := view()
	if q.Strategy != decompose.StrategyEager || q.PlanNodes != reg.Plan().NumNodes() || q.PlanDepth != reg.Plan().Depth() {
		t.Fatalf("reported plan %s with %d nodes, depth %d; runs %s with %d, depth %d",
			q.Strategy, q.PlanNodes, q.PlanDepth, reg.Plan().Strategy, reg.Plan().NumNodes(), reg.Plan().Depth())
	}
	if q.Matches != 0 || m.MatchesEmitted != 1 {
		t.Fatalf("after the move: query %d matches, engine %d", q.Matches, m.MatchesEmitted)
	}
	burst(4, 20, 10*time.Second)
	if m, q = view(); q.Matches != 1 || m.MatchesEmitted != 2 {
		t.Fatalf("after a match under the new plan: query %d matches, engine %d", q.Matches, m.MatchesEmitted)
	}
}
