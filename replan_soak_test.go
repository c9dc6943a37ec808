package streamworks_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/gen"
)

// TestAdaptiveShardedSoakDrift is the short soak for adaptive re-planning
// on the scale-out path: the drift workload streamed through the public
// sharded backend with adaptive planning on must (a) actually re-plan, (b)
// detect exactly the match set a frozen-plan run detects, and (c) keep its
// metrics self-consistent. Skipped under -short; CI runs it (with -race)
// on every push.
func TestAdaptiveShardedSoakDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped with -short")
	}
	w := gen.BenchDriftWorkload(40_000, 800, 20*time.Second)

	frozen, _, err := gen.RunSharded(w, 3)
	if err != nil {
		t.Fatalf("frozen run: %v", err)
	}
	w.Register.Adaptive = true
	adaptive, m, err := gen.RunSharded(w, 3)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}

	if !adaptive.Equal(frozen) {
		t.Fatalf("adaptive sharded run diverged: %d matches vs %d frozen", len(adaptive), len(frozen))
	}
	if len(adaptive) == 0 {
		t.Fatalf("soak produced no matches")
	}
	if m.Replans == 0 {
		t.Fatalf("no replans fired across %d drift checks:\n%+v", m.ReplanChecks, m)
	}
	if m.ReplanEdgesReplayed == 0 {
		t.Fatalf("replans fired but no window replay recorded:\n%+v", m)
	}
	// Metrics self-consistency: every query is reported, marked adaptive,
	// with a plan generation matching its replan count; the aggregated
	// replan total is the per-query sum; deduplicated match totals add up.
	if int(m.Registrations) != len(w.Queries) || len(m.Queries) != len(w.Queries) {
		t.Fatalf("registrations inconsistent: %d/%d of %d", m.Registrations, len(m.Queries), len(w.Queries))
	}
	var perQueryReplans, perQueryMatches uint64
	for _, q := range m.Queries {
		if !q.Adaptive {
			t.Fatalf("query %s not adaptive in metrics", q.Name)
		}
		if q.PlanGeneration < 1 {
			t.Fatalf("query %s has no plan generation", q.Name)
		}
		if q.PlanNodes == 0 || q.PlanDepth == 0 {
			t.Fatalf("query %s missing plan shape: %+v", q.Name, q)
		}
		perQueryReplans += q.Replans
		perQueryMatches += q.Matches
	}
	if perQueryReplans != m.Replans {
		t.Fatalf("per-query replans %d != total %d", perQueryReplans, m.Replans)
	}
	if perQueryMatches != m.MatchesEmitted || m.MatchesEmitted != uint64(len(adaptive)) {
		t.Fatalf("match accounting inconsistent: per-query %d, emitted %d, set %d",
			perQueryMatches, m.MatchesEmitted, len(adaptive))
	}
}

// TestReplanRacesUnregisterAndClose drives the drift workload with
// adaptive planning on while another goroutine unregisters and re-registers
// a query and a third closes the engine mid-stream. Run under -race in CI:
// the point is that replan ticks (which rebuild trees and replay windows on
// the shard workers) serialize safely against the control plane. Errors
// from the losing side of each race (ErrClosed, unknown query) are
// expected; data races and deadlocks are the failure mode.
func TestReplanRacesUnregisterAndClose(t *testing.T) {
	w := gen.BenchDriftWorkload(8_000, 300, 5*time.Second)
	eng := streamworks.NewSharded(
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithShards(3),
	)
	ctx := context.Background()
	adaptive := streamworks.RegisterOptions{Adaptive: true}
	for _, q := range w.Queries {
		if err := eng.RegisterQueryWith(ctx, q, adaptive); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {}))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Stream in chunks; ErrClosed just means the closer won the race.
		for i := 0; i < len(w.Edges); i += 256 {
			end := min(i+256, len(w.Edges))
			if err := eng.ProcessBatch(ctx, w.Edges[i:end]); err != nil {
				if errors.Is(err, streamworks.ErrClosed) {
					return
				}
				t.Errorf("ProcessBatch: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Churn a hub-ful query's registration while replans tick. Failures
		// are fine (duplicate/unknown under race; hub-free guard does not
		// apply to smurf-ddos) — crashes and races are not.
		q := gen.SmurfQuery(5 * time.Second)
		for i := 0; i < 20; i++ {
			_ = eng.UnregisterQuery(ctx, q.Name())
			_ = eng.RegisterQueryWith(ctx, q, adaptive)
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	<-sub.Done()
	// The engine must still answer metrics after the dust settles.
	if _, err := eng.Metrics(ctx); err != nil {
		t.Fatalf("Metrics after close: %v", err)
	}
}
