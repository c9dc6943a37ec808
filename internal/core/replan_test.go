package core

import (
	"errors"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/replan"
)

// replanTestConfig checks for drift aggressively so short tests exercise
// the tick.
func replanTestConfig() replan.Config {
	return replan.Config{CheckEvery: 8, MinEdges: 1, Cooldown: -1}
}

// burstQuery is a 3-edge query whose selective plan has two leaves — enough
// structure for a partial match to live across a plan swap.
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

// TestReplanBoundaryMatchStraddlingSwapEmitsOnce is the core swap-safety
// regression: a match whose edges straddle the plan swap — some edges
// ingested under the old plan, the rest under the new — is emitted exactly
// once. The swap backfills the new plan's DAG nodes from the retained window
// to rebuild the partial state they need.
func TestReplanBoundaryMatchStraddlingSwapEmitsOnce(t *testing.T) {
	e := New(&Config{Retention: time.Minute})
	reg, err := e.RegisterQuery(burstQuery(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	var emitted []MatchEvent
	e.Subscribe("", MatchSinkFunc(func(ev MatchEvent) { emitted = append(emitted, ev) }))

	ts := graph.Timestamp(0)
	// Two of the three edges arrive under the registration-time plan.
	e.ProcessEdge(hostEdge(1, 1, 2, "scan", ts.Add(time.Second)))
	e.ProcessEdge(hostEdge(2, 1, 3, "infect", ts.Add(2*time.Second)))
	if len(emitted) != 0 {
		t.Fatalf("no complete match yet, emitted %d", len(emitted))
	}
	if reg.Attachment().PartialMatches() == 0 {
		t.Fatalf("expected stored partials before the swap")
	}

	// Hot-swap onto a structurally different plan.
	oldGen := reg.PlanGeneration()
	if err := e.ReplanNow("burst", decompose.StrategyEager); err != nil {
		t.Fatalf("ReplanNow: %v", err)
	}
	if reg.PlanGeneration() != oldGen+1 || reg.Replans() != 1 {
		t.Fatalf("plan generation not bumped: gen=%d replans=%d", reg.PlanGeneration(), reg.Replans())
	}
	if reg.Plan().Strategy != decompose.StrategyEager {
		t.Fatalf("strategy not swapped: %s", reg.Plan().Strategy)
	}
	if reg.Attachment().PartialMatches() == 0 {
		t.Fatalf("backfill did not rebuild partial state under the new plan")
	}

	// The final edge arrives under the new plan: the straddling match must
	// complete exactly once.
	e.ProcessEdge(hostEdge(3, 1, 3, "flow", ts.Add(3*time.Second)))
	if len(emitted) != 1 {
		t.Fatalf("straddling match emitted %d times, want 1", len(emitted))
	}
	if m := e.Metrics(); m.Replans != 1 || m.ReplanEdgesReplayed == 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestReplanAfterEmissionDoesNotDuplicate: a match fully emitted before the
// swap must not be re-emitted when the backfill re-derives it under the new
// plan: a swap delivers nothing.
func TestReplanAfterEmissionDoesNotDuplicate(t *testing.T) {
	e := New(&Config{Retention: time.Minute})
	reg, err := e.RegisterQuery(burstQuery(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	e.Subscribe("", MatchSinkFunc(func(MatchEvent) { emitted++ }))

	ts := graph.Timestamp(0)
	e.ProcessEdge(hostEdge(1, 1, 2, "scan", ts.Add(time.Second)))
	e.ProcessEdge(hostEdge(2, 1, 3, "infect", ts.Add(2*time.Second)))
	e.ProcessEdge(hostEdge(3, 1, 3, "flow", ts.Add(3*time.Second)))
	if emitted != 1 {
		t.Fatalf("expected the complete match before the swap, got %d", emitted)
	}

	for _, strat := range []decompose.Strategy{decompose.StrategyEager, decompose.StrategySelective, decompose.StrategyBalanced} {
		if err := e.ReplanNow("burst", strat); err != nil {
			t.Fatalf("ReplanNow(%s): %v", strat, err)
		}
		if emitted != 1 {
			t.Fatalf("replay under %s re-emitted the match: %d", strat, emitted)
		}
	}
	if reg.Replans() != 3 {
		t.Fatalf("replans = %d", reg.Replans())
	}
	// Matches() (the registration counter) must not have drifted either.
	if reg.Matches() != 1 {
		t.Fatalf("registration match counter drifted: %d", reg.Matches())
	}
}

// TestReplanNowErrors covers the operational edges: unknown queries and
// unknown strategies fail without touching state.
func TestReplanNowErrors(t *testing.T) {
	e := New(nil)
	if err := e.ReplanNow("nope", ""); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("err = %v, want ErrUnknownQuery", err)
	}
	if _, err := e.RegisterQuery(burstQuery(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.ReplanNow("burst", decompose.Strategy("bogus")); !errors.Is(err, decompose.ErrUnknownStrategy) {
		t.Fatalf("err = %v, want ErrUnknownStrategy", err)
	}
	reg, _ := e.Registration("burst")
	if reg.PlanGeneration() != 1 || reg.Replans() != 0 {
		t.Fatalf("failed replans mutated state: gen=%d replans=%d", reg.PlanGeneration(), reg.Replans())
	}
}

// TestAdaptiveRegistrationLifecycle: the adaptive registration count that
// gates the drift tick follows register/unregister.
func TestAdaptiveRegistrationLifecycle(t *testing.T) {
	e := New(&Config{Replan: replanTestConfig()})
	if _, err := e.RegisterQuery(burstQuery(0), WithAdaptive(true)); err != nil {
		t.Fatal(err)
	}
	if e.adaptiveCount != 1 {
		t.Fatalf("adaptiveCount = %d", e.adaptiveCount)
	}
	if err := e.UnregisterQuery("burst"); err != nil {
		t.Fatal(err)
	}
	if e.adaptiveCount != 0 {
		t.Fatalf("adaptiveCount after unregister = %d", e.adaptiveCount)
	}
	// With no adaptive registrations the tick must stay silent.
	ts := graph.Timestamp(0)
	for i := 0; i < 100; i++ {
		ts = ts.Add(time.Millisecond)
		e.ProcessEdge(hostEdge(graph.EdgeID(i+1), 1, 2, "scan", ts))
	}
	if m := e.Metrics(); m.ReplanChecks != 0 {
		t.Fatalf("drift checks ran without adaptive registrations: %d", m.ReplanChecks)
	}
}
