package streamworks_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/gen"
)

// TestSharedPlansChurnUnderIngest races query register/unregister churn
// against live ingest on an engine running the shared evaluation DAG.
// It pins the two churn guarantees at the public surface: matches of the
// stable queries are exactly those of a churn-free run (attach/detach of
// other queries never perturbs a co-resident query's emissions, even where
// DAG nodes are shared between stable and churned plans), and detaching the
// churned queries drops exactly the DAG nodes whose refcount fell to zero
// (the node count returns to the stable baseline). Run under -race in CI,
// it doubles as the concurrency check for the DAG registration path.
func TestSharedPlansChurnUnderIngest(t *testing.T) {
	w := gen.BenchManyQueriesWorkload(16, 2500, 120, 10*time.Second)
	// The stable set keeps matching throughout; the churn set is registered
	// and unregistered continuously while edges stream. The news variants
	// stay stable: the widest of them widens the retention before streaming,
	// so a churned query of that window can register mid-stream. The first
	// family cycle also stays stable, so a churned variant shares DAG
	// structure with its family's stable variant.
	stable, churn := w.Queries[:0:0], w.Queries[:0:0]
	for i, q := range w.Queries {
		if i < 8 || strings.HasPrefix(q.Name(), "news") {
			stable = append(stable, q)
		} else {
			churn = append(churn, q)
		}
	}
	if len(churn) == 0 {
		t.Fatalf("no churnable query variants in the workload")
	}

	run := func(withChurn bool) (gen.MatchSet, int) {
		eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
		defer eng.Close()
		ctx := context.Background()
		for _, q := range stable {
			if err := eng.RegisterQuery(ctx, q); err != nil {
				t.Fatalf("RegisterQuery(%s): %v", q.Name(), err)
			}
		}
		base, err := eng.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if base.MQO.Nodes == 0 {
			t.Fatalf("engine reports no DAG nodes after registration")
		}

		var mu sync.Mutex
		set := make(gen.MatchSet)
		sub, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
			mu.Lock()
			set.AddKey(m.Query, m.Signature)
			mu.Unlock()
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()

		stop := make(chan struct{})
		churnDone := make(chan error, 1)
		if withChurn {
			go func() {
				defer close(churnDone)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					q := churn[i%len(churn)]
					if err := eng.RegisterQuery(ctx, q); err != nil {
						churnDone <- fmt.Errorf("churn register %s: %w", q.Name(), err)
						return
					}
					if err := eng.UnregisterQuery(ctx, q.Name()); err != nil {
						churnDone <- fmt.Errorf("churn unregister %s: %w", q.Name(), err)
						return
					}
				}
			}()
		} else {
			close(churnDone)
		}

		const batch = 250
		for i := 0; i < len(w.Edges); i += batch {
			j := min(i+batch, len(w.Edges))
			if err := eng.ProcessBatch(ctx, w.Edges[i:j]); err != nil {
				t.Fatalf("ProcessBatch at %d: %v", i, err)
			}
		}
		close(stop)
		if err := <-churnDone; err != nil {
			t.Fatal(err)
		}

		after, err := eng.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if after.MQO.Nodes != base.MQO.Nodes {
			t.Fatalf("DAG nodes after churn = %d, want the stable baseline %d (unregister must drop exactly the refcount-zero nodes)",
				after.MQO.Nodes, base.MQO.Nodes)
		}
		if after.MQO.Attachments != len(stable) {
			t.Fatalf("attachments after churn = %d, want %d", after.MQO.Attachments, len(stable))
		}

		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		<-sub.Done()
		// Keep only the stable queries' matches: churned queries legitimately
		// emit while attached (including window-limited backfill of live
		// edges), and that transient set is timing-dependent by design.
		mu.Lock()
		defer mu.Unlock()
		stableSet := make(gen.MatchSet)
		for k := range set {
			name := k[:strings.IndexByte(k, '\x1f')]
			for _, q := range stable {
				if q.Name() == name {
					stableSet[k] = struct{}{}
					break
				}
			}
		}
		return stableSet, base.MQO.Nodes
	}

	ref, refNodes := run(false)
	if len(ref) == 0 {
		t.Fatalf("churn-free run found no stable matches; workload proves nothing")
	}
	churned, churnedNodes := run(true)
	if refNodes != churnedNodes {
		t.Fatalf("baseline DAG size differs across runs: %d vs %d", refNodes, churnedNodes)
	}
	if !churned.Equal(ref) {
		t.Fatalf("stable queries' matches diverge under churn: got %d, want %d", len(churned), len(ref))
	}
}
