package gen

// The cross-strategy equivalence matrix: every decomposition strategy ×
// every workload regime × every backend mode must detect the canonical match
// set of the independent oracle (Oracle: naive expansion of the whole
// pattern, no decomposition, no stored state). This is the safety net for all
// planner work — a decomposition (or moving a query to another plan
// mid-stream by re-registering it) is free to change HOW matches are found,
// never WHICH matches are found. Run under -race in CI, the sharded cells
// double as a concurrency check.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
)

// tinyDriftWorkload is a laptop-second-scale drift workload: small enough
// for the matrix, long enough (in stream time) that the retention window
// rotates fully into the post-drift regime.
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
		name       string
		shards     int  // 0 = single engine
		reregister bool // queries move to other strategies mid-stream
		obs        bool // latency histograms on
	}
	modes := []mode{
		{"single", 0, false, false},
		{"single-reregister", 0, true, false},
		{"sharded2", 2, false, false},
		{"sharded2-reregister", 2, true, false},
		// Observability cells: the latency histograms are free to change
		// HOW the run is recorded, never WHICH matches it finds.
		{"single-obs", 0, false, true},
		{"sharded2-reregister-obs", 2, true, true},
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
						w.Register = streamworks.RegisterOptions{Strategy: string(strat)}
						w.Engine.Obs.Enabled = m.obs
						opts := []streamworks.Option{streamworks.WithEngineConfig(w.Engine)}
						var eng streamworks.Engine
						if m.shards == 0 {
							eng = streamworks.New(opts...)
						} else {
							eng = streamworks.NewSharded(append(opts, streamworks.WithShards(m.shards))...)
						}
						run := RunEngine
						if m.reregister {
							run = RunReregistering
						}
						set, err := run(eng, w)
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

// storedPartials replays w edge by edge through a single engine and returns
// its match set and the number of matches its DAG stored over the stream,
// read from each node's cumulative Inserted counter after every edge: the
// per-edge deltas sum to everything stored, pruned or not. (A query's
// PartialMatches would not do: it counts a shared node once per query
// viewing it.)
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
		if err := eng.ProcessBatch(ctx, []streamworks.StreamEdge{se}); err != nil {
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

// TestBalancedStoresFewerPartialsOnDrift pins why a query keeps the plan it
// was registered with: on the drift workload a frozen balanced plan detects
// the selective plan's exact match set while storing fewer matches in its
// DAG (1,540 against 2,682; while roots stored their 120 complete matches
// too, 1,660 against 2,802). Moving the selective plans at run time as the
// traffic mix rotated stored 1,667 by that count, no fewer than the frozen
// balanced plan, so the engine re-plans nothing. Wall-clock is the ledger's
// business, not this test's.
func TestBalancedStoresFewerPartialsOnDrift(t *testing.T) {
	w := tinyDriftWorkload()
	selectiveSet, selective := storedPartials(t, w)
	w.Register.Strategy = string(decompose.StrategyBalanced)
	balancedSet, balanced := storedPartials(t, w)
	if len(selectiveSet) == 0 {
		t.Fatalf("selective run found no matches; the workload proves nothing")
	}
	if !balancedSet.Equal(selectiveSet) {
		t.Fatalf("balanced run diverged: %d matches vs %d selective", len(balancedSet), len(selectiveSet))
	}
	t.Logf("matches stored over the stream: selective %d, balanced %d (%d matches)", selective, balanced, len(selectiveSet))
	if balanced >= selective {
		t.Fatalf("balanced run stored %d matches, selective %d", balanced, selective)
	}
}

// TestLateRegistrationPlansFromTheWindow: a query is planned once, from the
// statistics of the window at its registration. Registered before the mix
// rotates and a tenth of the stream after it, the same query gets different
// selective plans, and each engine keeps the plan it made.
func TestLateRegistrationPlansFromTheWindow(t *testing.T) {
	w := BenchDriftWorkload(16000, 200, 10*time.Second)
	plan := func(at int) string {
		e := core.New(&w.Engine)
		for _, se := range w.Edges[:at] {
			e.ProcessEdge(se)
		}
		reg, err := e.RegisterQuery(ReconBurstQuery(w.Engine.Retention))
		if err != nil {
			t.Fatal(err)
		}
		made := reg.Plan().String()
		for _, se := range w.Edges[at:] {
			e.ProcessEdge(se)
		}
		if kept := reg.Plan().String(); kept != made {
			t.Fatalf("registered at edge %d with\n%s\nended with\n%s", at, made, kept)
		}
		return made
	}
	before, after := plan(w.SplitAt/2), plan(w.SplitAt+len(w.Edges)/10)
	if before == after {
		t.Fatalf("the same plan before and after the rotation:\n%s", before)
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
	for _, shards := range []int{0, 2} {
		for _, histograms := range []bool{false, true} {
			w := w
			w.Engine.Obs.Enabled = histograms
			var set MatchSet
			if shards == 0 {
				set, _, err = RunSingle(w)
			} else {
				set, _, err = RunSharded(w, shards)
			}
			if err != nil {
				t.Fatalf("shards=%d histograms=%t: %v", shards, histograms, err)
			}
			if !set.Equal(ref) {
				t.Errorf("shards=%d histograms=%t: %d matches, uninstrumented single engine found %d",
					shards, histograms, len(set), len(ref))
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
