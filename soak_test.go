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

// TestSoakDriftReregister is the short soak for moving queries to other
// plans: the drift workload streamed through the public backend, with every
// query re-registered under another
// strategy at half and at five sixths of the stream, must detect exactly the
// match set of a run that keeps its plans, each match once; and the run that
// keeps them must report self-consistent metrics. Skipped under -short; CI runs it (with -race) on every push.
func TestSoakDriftReregister(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped with -short")
	}
	w := gen.BenchDriftWorkload(40_000, 800, 20*time.Second)

	kept, m, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("run keeping its plans: %v", err)
	}
	moved, err := gen.RunReregistering(streamworks.New(streamworks.WithEngineConfig(w.Engine)), w)
	if err != nil {
		t.Fatalf("re-registering run: %v", err)
	}
	if len(kept) == 0 {
		t.Fatalf("soak produced no matches")
	}
	if !moved.Equal(kept) {
		t.Fatalf("re-registering run diverged: %d matches vs %d", len(moved), len(kept))
	}

	// Metrics self-consistency: every query is reported with its plan
	// shape, and the per-query match counts add up to the emitted total.
	if int(m.Registrations) != len(w.Queries) || len(m.Queries) != len(w.Queries) {
		t.Fatalf("registrations inconsistent: %d/%d of %d", m.Registrations, len(m.Queries), len(w.Queries))
	}
	var perQueryMatches uint64
	for _, q := range m.Queries {
		if q.Strategy != "selective" || q.PlanNodes == 0 || q.PlanDepth == 0 {
			t.Fatalf("query %s missing its plan: %+v", q.Name, q)
		}
		perQueryMatches += q.Matches
	}
	if perQueryMatches != m.MatchesEmitted || m.MatchesEmitted != uint64(len(kept)) {
		t.Fatalf("match accounting inconsistent: per-query %d, emitted %d, set %d",
			perQueryMatches, m.MatchesEmitted, len(kept))
	}
}

// TestRegistrationChurnRacesStreamAndClose drives the drift workload
// through the in-process engine while another goroutine unregisters and
// re-registers a query and a third closes the engine mid-stream. Run under
// -race in CI: the point is that registrations (which backfill DAG nodes
// from the window) serialize safely against the
// stream and the control plane. Errors from the losing side of each race
// (ErrClosed, unknown query) are expected; data races and deadlocks are the
// failure mode.
func TestRegistrationChurnRacesStreamAndClose(t *testing.T) {
	w := gen.BenchDriftWorkload(8_000, 300, 5*time.Second)
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	ctx := context.Background()
	for _, q := range w.Queries {
		if err := eng.RegisterQuery(ctx, q); err != nil {
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
		// Churn a query's registration while edges stream. Failures are
		// fine (duplicate/unknown under race) — crashes and races are not.
		q := gen.SmurfQuery(5 * time.Second)
		for i := 0; i < 20; i++ {
			_ = eng.UnregisterQuery(ctx, q.Name())
			_ = eng.RegisterQuery(ctx, q)
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
