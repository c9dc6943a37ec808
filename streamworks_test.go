package streamworks_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
)

func acceptanceWorkload(t *testing.T) gen.Workload {
	t.Helper()
	cfg := gen.NetFlowConfig{
		Hosts:       250,
		Servers:     25,
		Edges:       3000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        42,
	}
	return gen.NetFlowWorkload(cfg, time.Minute)
}

// backendRun drives one engine through the whole workload via only the
// public interface: register every query, subscribe once to everything and
// once to a single query, stream the edges, then drain. finish is called
// between the last ProcessBatch and the Done waits, for backends whose
// drain is external (the remote daemon).
func backendRun(t *testing.T, eng streamworks.Engine, w gen.Workload, filterQuery string, finish func()) (all, filtered gen.MatchSet) {
	t.Helper()
	ctx := context.Background()
	for _, q := range w.Queries {
		if err := eng.RegisterQuery(ctx, q); err != nil {
			t.Fatalf("RegisterQuery(%s): %v", q.Name(), err)
		}
	}
	// Registering the same query twice reports ErrDuplicateQuery on every
	// backend.
	if err := eng.RegisterQuery(ctx, w.Queries[0]); !errors.Is(err, streamworks.ErrDuplicateQuery) {
		t.Fatalf("duplicate RegisterQuery: %v, want ErrDuplicateQuery", err)
	}
	// Subscribing to an unknown query fails fast on every backend.
	if _, err := eng.Subscribe("no-such-query", streamworks.SinkFunc(func(streamworks.Match) {})); !errors.Is(err, streamworks.ErrUnknownQuery) {
		t.Fatalf("Subscribe(unknown): %v, want ErrUnknownQuery", err)
	}

	all, filtered = make(gen.MatchSet), make(gen.MatchSet)
	subAll, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
		all.AddKey(m.Query, m.Signature)
	}))
	if err != nil {
		t.Fatalf("Subscribe(all): %v", err)
	}
	subOne, err := eng.Subscribe(filterQuery, streamworks.SinkFunc(func(m streamworks.Match) {
		if m.Query != filterQuery {
			t.Errorf("filtered subscription delivered %q", m.Query)
		}
		filtered.AddKey(m.Query, m.Signature)
	}))
	if err != nil {
		t.Fatalf("Subscribe(%s): %v", filterQuery, err)
	}

	const batch = 500
	for i := 0; i < len(w.Edges); i += batch {
		j := min(i+batch, len(w.Edges))
		if err := eng.ProcessBatch(ctx, w.Edges[i:j]); err != nil {
			t.Fatalf("ProcessBatch at %d: %v", i, err)
		}
	}
	if finish != nil {
		// External drain (the remote daemon): subscriptions end on their own
		// once the server flushes, so wait for them before closing the
		// engine — Close on a Remote tears streams down abortively.
		finish()
		<-subAll.Done()
		<-subOne.Done()
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	} else {
		// In-process backends: Close is the drain; Done follows it.
		if err := eng.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		<-subAll.Done()
		<-subOne.Done()
	}
	if err := subAll.Err(); err != nil {
		t.Fatalf("all-matches subscription ended with error: %v", err)
	}
	if err := subOne.Err(); err != nil {
		t.Fatalf("filtered subscription ended with error: %v", err)
	}

	// Misuse after Close is an error, not a panic, on every backend.
	if err := eng.Process(ctx, w.Edges[0]); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("Process after Close: %v, want ErrClosed", err)
	}
	if err := eng.RegisterQuery(ctx, w.Queries[0]); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("RegisterQuery after Close: %v, want ErrClosed", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	return all, filtered
}

// TestAllBackendsIdenticalMatchSets is the acceptance test for the public
// API: the same netflow workload flows through all three backends — New,
// NewSharded, and Connect against an httptest daemon — exclusively through
// the streamworks.Engine interface, and every backend must produce the
// identical deduplicated match set; a per-query Subscribe must deliver
// exactly that query's matches on each backend.
func TestAllBackendsIdenticalMatchSets(t *testing.T) {
	w := acceptanceWorkload(t)
	const filterQuery = "smurf-ddos"

	local := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	wantAll, wantFiltered := backendRun(t, local, w, filterQuery, nil)
	if len(wantAll) == 0 || len(wantFiltered) == 0 {
		t.Fatalf("degenerate workload: %d total / %d filtered matches", len(wantAll), len(wantFiltered))
	}
	// The filtered set must be exactly the filter query's slice of the full
	// set (and in particular non-trivial in both directions).
	if len(wantFiltered) >= len(wantAll) {
		t.Fatalf("filtered set (%d) not a strict subset of all (%d)", len(wantFiltered), len(wantAll))
	}

	sharded := streamworks.NewSharded(streamworks.WithEngineConfig(w.Engine), streamworks.WithShards(4))
	gotAll, gotFiltered := backendRun(t, sharded, w, filterQuery, nil)
	if !gotAll.Equal(wantAll) {
		t.Fatalf("sharded: %d matches, local %d", len(gotAll), len(wantAll))
	}
	if !gotFiltered.Equal(wantFiltered) {
		t.Fatalf("sharded filtered: %d matches, local %d", len(gotFiltered), len(wantFiltered))
	}

	srv := server.New(server.Config{
		Shard:            shard.Config{Shards: 3, Engine: w.Engine},
		SubscriberBuffer: 16384,
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	remote, err := streamworks.Connect(context.Background(), hs.URL)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if info := remote.ServerInfo(); info.Shards != 3 || info.Version == "" ||
		info.GoVersion != runtime.Version() || info.ObsEnabled {
		t.Fatalf("ServerInfo = %+v, want shards=3 go_version=%s obs_enabled=false",
			info, runtime.Version())
	}
	// The daemon drain is what ends remote subscriptions; trigger it after
	// the last batch has been routed.
	gotAll, gotFiltered = backendRun(t, remote, w, filterQuery, srv.Close)
	if !gotAll.Equal(wantAll) {
		t.Fatalf("remote: %d matches, local %d", len(gotAll), len(wantAll))
	}
	if !gotFiltered.Equal(wantFiltered) {
		t.Fatalf("remote filtered: %d matches, local %d", len(gotFiltered), len(wantFiltered))
	}
}

// TestSubscriptionCloseStopsDelivery checks that closing one subscription
// does not disturb the engine or other subscriptions.
func TestSubscriptionCloseStopsDelivery(t *testing.T) {
	w := acceptanceWorkload(t)
	ctx := context.Background()
	eng := streamworks.NewSharded(streamworks.WithEngineConfig(w.Engine), streamworks.WithShards(2))
	defer eng.Close()
	for _, q := range w.Queries {
		if err := eng.RegisterQuery(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	kept := make(gen.MatchSet)
	keptSub, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
		kept.AddKey(m.Query, m.Signature)
	}))
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := dropped.Close(); err != nil {
		t.Fatalf("Subscription.Close: %v", err)
	}
	<-dropped.Done()
	if err := dropped.Close(); err != nil {
		t.Fatalf("second Subscription.Close: %v", err)
	}
	if err := eng.ProcessBatch(ctx, w.Edges); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-keptSub.Done()
	if len(kept) == 0 {
		t.Fatal("surviving subscription received nothing")
	}
	m, err := eng.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics after Close: %v", err)
	}
	if m.MatchesEmitted != uint64(len(kept)) {
		t.Fatalf("MatchesEmitted = %d, want %d", m.MatchesEmitted, len(kept))
	}
}

// TestLocalBuildsOneReportPerMatch: however many subscriptions admit a
// match, the local backend resolves it once — every sink is handed the same
// report (same bindings storage), in subscription order.
func TestLocalBuildsOneReportPerMatch(t *testing.T) {
	w := acceptanceWorkload(t)
	ctx := context.Background()
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	defer eng.Close()
	for _, q := range w.Queries {
		if err := eng.RegisterQuery(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	var first, second []streamworks.Match
	var order []int
	for i, got := range []*[]streamworks.Match{&first, &second} {
		if _, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
			*got = append(*got, m)
			order = append(order, i)
		})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.ProcessBatch(ctx, w.Edges); err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("subscriptions received %d and %d matches", len(first), len(second))
	}
	for i := range first {
		if &first[i].Bindings[0] != &second[i].Bindings[0] || first[i].Signature != second[i].Signature {
			t.Fatalf("match %d was resolved once per subscription", i)
		}
		if order[2*i] != 0 || order[2*i+1] != 1 {
			t.Fatalf("match %d delivered out of subscription order: %v", i, order[2*i:2*i+2])
		}
	}
}

// TestCloseSubscriptionFromSink checks the natural "deliver once then
// unsubscribe" pattern: a sink closing its own subscription must not
// deadlock or panic on any in-process backend, and delivery to it stops.
func TestCloseSubscriptionFromSink(t *testing.T) {
	w := acceptanceWorkload(t)
	ctx := context.Background()
	backends := map[string]streamworks.Engine{
		"local":   streamworks.New(streamworks.WithEngineConfig(w.Engine)),
		"sharded": streamworks.NewSharded(streamworks.WithEngineConfig(w.Engine), streamworks.WithShards(2)),
	}
	for name, eng := range backends {
		t.Run(name, func(t *testing.T) {
			defer eng.Close()
			for _, q := range w.Queries {
				if err := eng.RegisterQuery(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
			var sub streamworks.Subscription
			var got atomic.Int64
			sub, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {
				got.Add(1)
				sub.Close() // unsubscribe from inside the sink
			}))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- eng.ProcessBatch(ctx, w.Edges) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("ProcessBatch: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("ProcessBatch deadlocked on a sink that closes its own subscription")
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			<-sub.Done()
			// Exactly-once is not promised (a delivery may already be in
			// flight when Close lands), but delivery must stop almost
			// immediately rather than continue for the whole stream.
			if n := got.Load(); n == 0 || n > 4 {
				t.Fatalf("sink saw %d matches after closing itself, want 1 (a few tolerated)", n)
			}
		})
	}
}

// TestLocalContextCancellation checks ctx is honored on blocking calls.
func TestLocalContextCancellation(t *testing.T) {
	w := acceptanceWorkload(t)
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.ProcessBatch(ctx, w.Edges); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessBatch with canceled ctx: %v", err)
	}
	if err := eng.RegisterQuery(ctx, w.Queries[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("RegisterQuery with canceled ctx: %v", err)
	}
}
