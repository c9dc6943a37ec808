package replan

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stats"
)

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.CheckEvery != DefaultCheckEvery || c.Threshold != DefaultThreshold ||
		c.Cooldown != DefaultCooldown || c.MinEdges != DefaultMinEdges {
		t.Fatalf("zero config not defaulted: %+v", c)
	}
	// Negative cooldown disables it, sub-parity thresholds are rejected.
	c = Config{Cooldown: -30 * time.Second, Threshold: 0.5}.WithDefaults()
	if c.Cooldown >= 0 {
		t.Fatalf("negative cooldown should stay disabled, got %s", c.Cooldown)
	}
	if c.Threshold != DefaultThreshold {
		t.Fatalf("threshold <= 1 should default, got %v", c.Threshold)
	}
	c = Config{CheckEvery: 7, Threshold: 3, Cooldown: time.Minute, MinEdges: 5}.WithDefaults()
	if c.CheckEvery != 7 || c.Threshold != 3 || c.Cooldown != time.Minute || c.MinEdges != 5 {
		t.Fatalf("explicit config clobbered: %+v", c)
	}
	// WithDefaults must be idempotent: configs are normalized once by the
	// engine and again by each registration's detector, and a second pass
	// must never resurrect a default the first pass disabled.
	for _, in := range []Config{{}, {Cooldown: -1}, {Cooldown: time.Minute}, {CheckEvery: 7, Threshold: 3, MinEdges: 5}} {
		once := in.WithDefaults()
		if twice := once.WithDefaults(); twice != once {
			t.Fatalf("WithDefaults not idempotent: %+v -> %+v -> %+v", in, once, twice)
		}
	}
}

func TestDetectorHysteresis(t *testing.T) {
	d := NewDetector(Config{Threshold: 2, Cooldown: 10 * time.Second, MinEdges: 100})
	now := graph.Timestamp(0)

	// Cold summary: no swap even with a huge ratio.
	if _, swap := d.Should(100, 1, 50, now); swap {
		t.Fatalf("swapped below MinEdges")
	}
	// Warm, below threshold: hold.
	if ratio, swap := d.Should(15, 10, 1000, now); swap || ratio != 1.5 {
		t.Fatalf("ratio=%v swap=%v, want 1.5/false", ratio, swap)
	}
	// Warm, past threshold: swap.
	ratio, swap := d.Should(30, 10, 1000, now)
	if !swap || ratio != 3 {
		t.Fatalf("ratio=%v swap=%v, want 3/true", ratio, swap)
	}
	d.NoteSwap(now)
	// Inside the cooldown: hold regardless of ratio.
	if _, swap := d.Should(1000, 1, 2000, now.Add(5*time.Second)); swap {
		t.Fatalf("swapped inside cooldown")
	}
	// Cooldown elapsed: swap again.
	if _, swap := d.Should(1000, 1, 2000, now.Add(11*time.Second)); !swap {
		t.Fatalf("did not swap after cooldown")
	}
	// A costless fresh plan (no estimator signal) never triggers.
	if _, swap := d.Should(1000, 0, 2000, now.Add(30*time.Second)); swap {
		t.Fatalf("swapped on zero fresh cost")
	}
}

// planFor builds a plan for a 3-edge path query with the given strategy,
// using an estimator over the (possibly nil) summary.
func planFor(t *testing.T, s *stats.Summary, strat decompose.Strategy) (*decompose.Plan, *stats.Estimator) {
	t.Helper()
	q := query.NewBuilder("path").
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "Host").
		Vertex("d", "Host").
		Edge("a", "b", "rare").
		Edge("b", "c", "common").
		Edge("c", "d", "common").
		MustBuild()
	est := stats.NewEstimator(s)
	p, err := decompose.NewPlanner(est).Plan(q, strat)
	if err != nil {
		t.Fatalf("planning: %v", err)
	}
	return p, est
}

func TestPlanCostOrdersPlansBySelectivity(t *testing.T) {
	s := stats.NewSummary()
	g := graph.New(graph.WithAutoVertices())
	// Feed a skewed stream: "common" dominates, "rare" is rare.
	seq := graph.EdgeID(1)
	ts := graph.Timestamp(0)
	emit := func(typ string, n int) {
		for i := 0; i < n; i++ {
			se := graph.StreamEdge{
				SourceType: "Host", TargetType: "Host",
				Edge: graph.Edge{ID: seq, Source: graph.VertexID(uint64(seq) % 50), Target: graph.VertexID(uint64(seq)%50 + 50), Type: typ, Timestamp: ts},
			}
			if _, err := g.AddStreamEdge(se); err != nil {
				t.Fatal(err)
			}
			s.Observe(se, g)
			seq++
			ts = ts.Add(time.Millisecond)
		}
	}
	emit("common", 5000)
	emit("rare", 5)

	selective, est := planFor(t, s, decompose.StrategySelective)
	eager, _ := planFor(t, s, decompose.StrategyEager)

	cs, ce := PlanCost(est, selective), PlanCost(est, eager)
	if cs <= 0 || ce <= 0 {
		t.Fatalf("costs not positive: selective=%v eager=%v", cs, ce)
	}
	// The selectivity-ordered plan must not score worse than the eager
	// strawman under the statistics it was built from.
	if cs > ce {
		t.Fatalf("selective plan (%v) scored worse than eager (%v)", cs, ce)
	}
	if PlanCost(nil, selective) != 0 || PlanCost(est, nil) != 0 {
		t.Fatalf("nil estimator/plan should cost 0")
	}
}
