package gen

// The cross-strategy equivalence matrix: every decomposition strategy ×
// every workload regime × every backend mode must detect the canonical match
// set of the independent oracle (Oracle: naive expansion of the whole
// pattern, no decomposition, no stored state). This is the safety net for all
// planner work — a decomposition (or a runtime plan swap) is free to change
// HOW matches are found, never WHICH matches are found. Run under -race in
// CI, the sharded cells double as a concurrency check.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/replan"
)

// tinyDriftWorkload is a laptop-second-scale drift workload: small enough
// for the matrix, long enough (in stream time) that the retention window
// rotates fully into the post-drift regime and adaptive cells actually
// re-plan.
func tinyDriftWorkload() Workload {
	return BenchDriftWorkload(4000, 200, 10*time.Second)
}

func tinyNewsWorkload() Workload {
	cfg := DefaultNewsConfig()
	cfg.Articles = 300
	cfg.Keywords = 90
	cfg.Locations = 15
	cfg.EventClusters = 2
	return NewsWorkload(cfg, 5*time.Minute, 2)
}

func TestCrossStrategyEquivalenceMatrix(t *testing.T) {
	workloads := []Workload{
		tinyNetflowWorkload(),
		tinyNewsWorkload(),
		tinyDriftWorkload(),
		tinyManyQueriesWorkload(),
	}
	type mode struct {
		name     string
		shards   int  // 0 = single engine
		adaptive bool // re-plans the DAG in place
		obs      bool // latency histograms on
	}
	modes := []mode{
		{"single", 0, false, false},
		{"single-adaptive", 0, true, false},
		{"sharded2", 2, false, false},
		{"sharded2-adaptive", 2, true, false},
		// Observability cells: the latency histograms are free to change
		// HOW the run is recorded, never WHICH matches it finds.
		{"single-obs", 0, false, true},
		{"sharded2-adaptive-obs", 2, true, true},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ref := Oracle(w)
			if len(ref) == 0 {
				t.Fatalf("the oracle found no matches; the workload proves nothing")
			}
			for _, strat := range decompose.Strategies() {
				for _, m := range modes {
					strat, m := strat, m
					t.Run(fmt.Sprintf("%s/%s", strat, m.name), func(t *testing.T) {
						t.Parallel()
						w := w
						w.Register = streamworks.RegisterOptions{Strategy: string(strat), Adaptive: m.adaptive}
						var opts []streamworks.Option
						if m.obs {
							opts = append(opts, streamworks.WithObservability(true))
						}
						var (
							set MatchSet
							err error
						)
						if m.shards == 0 {
							set, _, err = RunSingle(w, opts...)
						} else {
							set, _, err = RunSharded(w, m.shards, opts...)
						}
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if !set.Equal(ref) {
							t.Fatalf("match set diverges from the oracle's: got %d matches, want %d",
								len(set), len(ref))
						}
					})
				}
			}
		})
	}
}

// TestAdaptiveReplansOnDrift pins the drift workload's reason to exist:
// with adaptive planning on, the engine actually re-plans (the matrix above
// only proves it is safe).
func TestAdaptiveReplansOnDrift(t *testing.T) {
	w := tinyDriftWorkload()
	w.Register.Adaptive = true
	_, m, err := RunSingle(w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Replans == 0 {
		t.Fatalf("adaptive run never re-planned (checks=%d); drift workload or detector is broken\n%+v",
			m.ReplanChecks, m)
	}
	if m.ReplanChecks == 0 {
		t.Fatalf("adaptive run never checked for drift")
	}
	var gens uint64
	for _, q := range m.Queries {
		if !q.Adaptive {
			t.Fatalf("query %s not marked adaptive", q.Name)
		}
		gens += q.PlanGeneration - 1
	}
	if gens != m.Replans {
		t.Fatalf("plan generations (%d swaps) disagree with Replans=%d", gens, m.Replans)
	}
}

// storedPartials replays w edge by edge through a single engine and returns
// its match set and the number of matches its DAG stored over the stream,
// read from each node's cumulative Inserted counter after every edge: the
// per-edge deltas sum to everything stored, pruned or not. A node a plan swap
// collects keeps the count it reached, and a signature created again starts
// from zero. (A query's PartialMatches would not do: it counts a shared node
// once per query viewing it.)
func storedPartials(t *testing.T, w Workload) (MatchSet, int) {
	t.Helper()
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	defer eng.Close()
	ctx := context.Background()
	for _, q := range w.Queries {
		if err := eng.RegisterQueryWith(ctx, q, w.Register); err != nil {
			t.Fatal(err)
		}
	}
	set := make(MatchSet)
	sub, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
		set.AddKey(m.Query, m.Signature)
	}))
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]uint64{} // signature -> Inserted at the previous edge, live nodes only
	stored := uint64(0)
	for _, se := range w.Edges {
		if err := eng.Process(ctx, se); err != nil {
			t.Fatal(err)
		}
		m, err := eng.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[string]uint64, len(m.MQO.PerNode))
		for _, ns := range m.MQO.PerNode {
			if prev, ok := last[ns.Sig]; ok && ns.Inserted >= prev {
				stored += ns.Inserted - prev
			} else {
				stored += ns.Inserted
			}
			live[ns.Sig] = ns.Inserted
		}
		last = live
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-sub.Done()
	return set, int(stored)
}

// TestAdaptiveStoresFewerPartialsOnDrift is the counter-level reason
// internal/replan exists: on the drift workload the adaptive run detects
// the frozen run's exact match set while storing fewer matches in its DAG,
// because after the traffic mix rotates it re-anchors the plans on what is
// rare now. Wall-clock is the ledger's business, not this test's.
func TestAdaptiveStoresFewerPartialsOnDrift(t *testing.T) {
	w := tinyDriftWorkload()
	frozenSet, frozen := storedPartials(t, w)
	w.Register.Adaptive = true
	adaptiveSet, adaptive := storedPartials(t, w)
	if len(frozenSet) == 0 {
		t.Fatalf("frozen run found no matches; the workload proves nothing")
	}
	if !adaptiveSet.Equal(frozenSet) {
		t.Fatalf("adaptive run diverged: %d matches vs %d frozen", len(adaptiveSet), len(frozenSet))
	}
	t.Logf("matches stored over the stream: frozen %d, adaptive %d (%d matches)", frozen, adaptive, len(frozenSet))
	if adaptive >= frozen {
		t.Fatalf("adaptive run stored %d matches, frozen %d: re-planning bought nothing", adaptive, frozen)
	}
}

// TestLateRegistrationIsJudgedByItsOwnPlanner: a query registered after the
// mix has rotated is planned from the window as it is, and the drift check
// that follows at once (CheckEvery 1: the very next edge) plans from the
// same estimator, so it finds nothing to swap. Registration point: a tenth
// of the stream past the rotation, where a planner reading the whole
// stream's history and a checker reading the window disagree by 2.7×.
func TestLateRegistrationIsJudgedByItsOwnPlanner(t *testing.T) {
	w := BenchDriftWorkload(16000, 200, 10*time.Second)
	cfg := w.Engine
	cfg.Replan.CheckEvery = 1
	e := core.New(&cfg)
	at := w.SplitAt + len(w.Edges)/10
	for _, se := range w.Edges[:at] {
		e.ProcessEdge(se)
	}
	if _, err := e.RegisterQuery(ReconBurstQuery(cfg.Retention), core.WithAdaptive(true)); err != nil {
		t.Fatal(err)
	}
	e.ProcessEdge(w.Edges[at])
	m := e.Metrics()
	if m.ReplanChecks != 1 {
		t.Fatalf("%d drift checks after one edge, want 1", m.ReplanChecks)
	}
	audit := m.Queries[0].LastReplanAudit
	if m.Replans != 0 || audit != nil && audit.Ratio >= replan.DefaultThreshold {
		t.Fatalf("registered at edge %d and swapped at once (replans %d, audit %+v): planner and checker disagree", at, m.Replans, audit)
	}
}

// TestObservabilityParity pins that instrumentation changes how a run is
// recorded, never which matches it finds: with the latency histograms on, one
// engine and two shards deliver the uninstrumented match set. (The matrix
// above covers observability across strategies.)
func TestObservabilityParity(t *testing.T) {
	w := BenchNetFlowWorkload(4000, 200, 10*time.Second)
	ref, _, err := RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref) == 0 {
		t.Fatalf("reference run found no matches; the workload proves nothing")
	}
	modes := []struct {
		name string
		opts []streamworks.Option
	}{
		{"off", nil},
		{"histograms", []streamworks.Option{streamworks.WithObservability(true)}},
	}
	for _, shards := range []int{0, 2} {
		for _, m := range modes {
			var set MatchSet
			if shards == 0 {
				set, _, err = RunSingle(w, m.opts...)
			} else {
				set, _, err = RunSharded(w, shards, m.opts...)
			}
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, m.name, err)
			}
			if !set.Equal(ref) {
				t.Errorf("shards=%d %s: %d matches, uninstrumented single engine found %d",
					shards, m.name, len(set), len(ref))
			}
		}
	}
}

// TestDriftWorkloadShape sanity-checks the generator extension: the stream
// is time-ordered with unique IDs, the split marks the mix rotation, and
// the post-drift segment is scan-heavy while the pre-drift one is not.
func TestDriftWorkloadShape(t *testing.T) {
	w := tinyDriftWorkload()
	if w.SplitAt <= 0 || w.SplitAt >= len(w.Edges) {
		t.Fatalf("SplitAt=%d of %d edges", w.SplitAt, len(w.Edges))
	}
	ids := make(map[graph.EdgeID]bool, len(w.Edges))
	last := w.Edges[0].Edge.Timestamp
	for _, se := range w.Edges {
		if se.Edge.Timestamp < last {
			t.Fatalf("stream not time-ordered")
		}
		last = se.Edge.Timestamp
		if ids[se.Edge.ID] {
			t.Fatalf("duplicate edge ID %d", se.Edge.ID)
		}
		ids[se.Edge.ID] = true
	}
	scanShare := func(edges []graph.StreamEdge) float64 {
		scans := 0
		for _, se := range edges {
			if se.Edge.Type == EdgeScan {
				scans++
			}
		}
		return float64(scans) / float64(max(len(edges), 1))
	}
	pre, post := scanShare(w.Edges[:w.SplitAt]), scanShare(w.Edges[w.SplitAt:])
	if pre > 0.10 {
		t.Fatalf("pre-drift stream already scan-heavy: %.2f", pre)
	}
	if post < 0.30 {
		t.Fatalf("post-drift stream not scan-heavy: %.2f", post)
	}
}
