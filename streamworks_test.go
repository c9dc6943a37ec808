package streamworks_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
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
	if err := eng.ProcessBatch(ctx, w.Edges[:1]); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("ProcessBatch after Close: %v, want ErrClosed", err)
	}
	if err := eng.RegisterQuery(ctx, w.Queries[0]); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("RegisterQuery after Close: %v, want ErrClosed", err)
	}
	if _, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {})); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("Subscribe after Close: %v, want ErrClosed", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	return all, filtered
}

// TestAllBackendsIdenticalMatchSets is the acceptance test for the public
// API: the same netflow workload flows through New and through Connect
// against an httptest daemon — exclusively through
// the streamworks.Engine interface, and every backend must produce the
// identical deduplicated match set; a per-query Subscribe must deliver
// exactly that query's matches on each.
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

	// Remote runs once per transport, each against a daemon of its own:
	// NDJSON posts a request per batch, binary sends every batch on one
	// ingest session.
	for _, transport := range []streamworks.Transport{streamworks.TransportNDJSON, streamworks.TransportBinary} {
		srv := server.New(server.Config{
			Shard:            shard.Config{Engine: w.Engine},
			SubscriberBuffer: 16384,
		})
		hs := httptest.NewServer(srv)
		defer hs.Close()
		remote, err := streamworks.Connect(context.Background(), hs.URL, streamworks.WithTransport(transport))
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		if info := remote.ServerInfo(); info.Version == "" ||
			info.GoVersion != runtime.Version() || info.ObsEnabled {
			t.Fatalf("ServerInfo = %+v, want go_version=%s obs_enabled=false",
				info, runtime.Version())
		}
		// The daemon drain is what ends remote subscriptions; trigger it after
		// the last batch has been routed.
		gotAll, gotFiltered := backendRun(t, remote, w, filterQuery, srv.Close)
		if !gotAll.Equal(wantAll) {
			t.Fatalf("remote %s: %d matches, local %d", transport, len(gotAll), len(wantAll))
		}
		if !gotFiltered.Equal(wantFiltered) {
			t.Fatalf("remote %s filtered: %d matches, local %d", transport, len(gotFiltered), len(wantFiltered))
		}
	}
}

// TestUnnamedQueryRefusedOnEveryBackend: a query is addressed by its name
// — by Subscribe, UnregisterQuery, match reports and the log — so every
// backend refuses one without a name, the same way, and registers nothing.
func TestUnnamedQueryRefusedOnEveryBackend(t *testing.T) {
	ctx := context.Background()
	unnamed, err := streamworks.ParseQuery(strings.TrimPrefix(echoQuery, "query icmp-echo\n"))
	if err != nil || unnamed.Name() != "" {
		t.Fatalf("ParseQuery: %v, name %q", err, unnamed.Name())
	}
	srv := server.New(server.Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	remote, err := streamworks.Connect(ctx, hs.URL)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	for _, b := range []struct {
		name string
		eng  streamworks.Engine
	}{
		{"New", streamworks.New()},
		{"Connect", remote},
	} {
		if err := b.eng.RegisterQuery(ctx, unnamed); !errors.Is(err, streamworks.ErrUnnamedQuery) {
			t.Errorf("%s: RegisterQuery(unnamed) = %v, want ErrUnnamedQuery", b.name, err)
		}
		if m, err := b.eng.Metrics(ctx); err != nil || m.Registrations != 0 {
			t.Errorf("%s: %d registrations after the refusal (Metrics: %v)", b.name, m.Registrations, err)
		}
		b.eng.Close()
	}
}

// TestFrontendContract is the one statement of what the in-process backend
// promises about subscriptions and shutdown, run clause by clause against New.
// (TestAllBackendsIdenticalMatchSets holds Connect to the
// clauses that apply to a remote engine: unknown filter, ErrClosed.)
func TestFrontendContract(t *testing.T) {
	w := acceptanceWorkload(t)
	ctx := context.Background()
	nop := streamworks.SinkFunc(func(streamworks.Match) {})
	// open builds a backend with the workload's queries registered; the
	// cleanup Close is a no-op for clauses that close it themselves.
	open := func(t *testing.T, opts ...streamworks.Option) *streamworks.Sharded {
		eng := streamworks.New(append([]streamworks.Option{streamworks.WithEngineConfig(w.Engine)}, opts...)...)
		t.Cleanup(func() { eng.Close() })
		registerAll(t, eng, w)
		return eng
	}
	emitted := func(t *testing.T, eng streamworks.Engine) int {
		m, err := eng.Metrics(ctx)
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		return int(m.MatchesEmitted)
	}

	t.Run("unknown-filter", func(t *testing.T) {
		eng := open(t)
		if _, err := eng.Subscribe("no-such-query", nop); !errors.Is(err, streamworks.ErrUnknownQuery) {
			t.Fatalf("Subscribe(unknown): %v, want ErrUnknownQuery", err)
		}
		if err := eng.UnregisterQuery(ctx, w.Queries[0].Name()); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Subscribe(w.Queries[0].Name(), nop); !errors.Is(err, streamworks.ErrUnknownQuery) {
			t.Fatalf("Subscribe(unregistered): %v, want ErrUnknownQuery", err)
		}
	})

	// A sink closing its own subscription — "deliver once, then
	// unsubscribe" — must not deadlock, and delivery to it stops.
	t.Run("close-from-own-sink", func(t *testing.T) {
		eng := open(t)
		var sub streamworks.Subscription
		var got atomic.Int64
		sub, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {
			got.Add(1)
			sub.Close()
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
		eng.Close()
		<-sub.Done()
		// Exactly-once is not promised (a delivery may be in flight when
		// Close lands), but delivery must stop at once.
		if n := got.Load(); n == 0 || n > 4 {
			t.Fatalf("sink saw %d matches after closing itself, want 1 (a few tolerated)", n)
		}
	})

	// Closing one subscription leaves the engine and its neighbours alone.
	t.Run("close-one-subscription", func(t *testing.T) {
		eng := open(t)
		var kept atomic.Int64
		keptSub, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) { kept.Add(1) }))
		if err != nil {
			t.Fatal(err)
		}
		dropped, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {
			t.Error("delivery to a closed subscription")
		}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // idempotent
			if err := dropped.Close(); err != nil {
				t.Fatalf("Subscription.Close #%d: %v", i+1, err)
			}
			<-dropped.Done()
		}
		if err := eng.ProcessBatch(ctx, w.Edges); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		<-keptSub.Done()
		if n := int(kept.Load()); n == 0 || n != emitted(t, eng) {
			t.Fatalf("surviving subscription saw %d matches, engine emitted %d", n, emitted(t, eng))
		}
	})

	t.Run("after-close", func(t *testing.T) {
		eng := open(t)
		for i := 0; i < 2; i++ {
			if err := eng.Close(); err != nil {
				t.Fatalf("Close #%d: %v", i+1, err)
			}
		}
		if _, err := eng.Subscribe("", nop); !errors.Is(err, streamworks.ErrClosed) {
			t.Fatalf("Subscribe after Close: %v, want ErrClosed", err)
		}
		if err := eng.ProcessBatch(ctx, w.Edges[:1]); !errors.Is(err, streamworks.ErrClosed) {
			t.Fatalf("ProcessBatch after Close: %v, want ErrClosed", err)
		}
		if err := eng.RegisterQuery(ctx, w.Queries[0]); !errors.Is(err, streamworks.ErrClosed) {
			t.Fatalf("RegisterQuery after Close: %v, want ErrClosed", err)
		}
		if _, err := eng.Metrics(ctx); err != nil {
			t.Fatalf("Metrics after Close: %v", err)
		}
	})

	// Done is the promise that nothing more will arrive: it is open while
	// the engine runs, and by the time it closes every match has been
	// delivered.
	t.Run("done-after-final-delivery", func(t *testing.T) {
		eng := open(t)
		var sub streamworks.Subscription
		var got atomic.Int64
		sub, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {
			select {
			case <-sub.Done():
				t.Error("delivery after Done closed")
			default:
			}
			got.Add(1)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ProcessBatch(ctx, w.Edges); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sub.Done():
			t.Fatal("Done closed on a running engine")
		default:
		}
		go eng.Close()
		<-sub.Done()
		n := int(got.Load())
		eng.Close() // returns once the concurrent Close has finished
		if n == 0 || n != emitted(t, eng) {
			t.Fatalf("%d matches delivered when Done closed, engine emitted %d", n, emitted(t, eng))
		}
	})

	// However many subscriptions admit a match it is resolved once: every
	// sink is handed the same report (same bindings storage), in
	// subscription order.
	for _, subs := range []int{1, 8} {
		t.Run(fmt.Sprintf("one-report-per-match/%d-subscribers", subs), func(t *testing.T) {
			eng := open(t)
			got := make([][]streamworks.Match, subs)
			var order []int // sinks run one at a time, on the delivering goroutine
			for i := range got {
				if _, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
					got[i] = append(got[i], m)
					order = append(order, i)
				})); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.ProcessBatch(ctx, w.Edges); err != nil {
				t.Fatal(err)
			}
			eng.Close() // the drain: orders every delivery before the reads below
			if n := len(got[0]); n == 0 || n != emitted(t, eng) {
				t.Fatalf("first subscription saw %d matches, engine emitted %d", n, emitted(t, eng))
			}
			for i, m := range got[0] {
				for j := range got {
					if len(got[j]) != len(got[0]) {
						t.Fatalf("subscription %d saw %d matches, subscription 0 saw %d", j, len(got[j]), len(got[0]))
					}
					if &got[j][i].Bindings[0] != &m.Bindings[0] || got[j][i].Signature != m.Signature {
						t.Fatalf("match %d was resolved again for subscription %d", i, j)
					}
					if order[i*subs+j] != j {
						t.Fatalf("match %d delivered out of subscription order: %v", i, order[i*subs:(i+1)*subs])
					}
				}
			}
		})
	}

	// Matches the log re-derives at start-up that were never acknowledged
	// go to the first subscriber whose filter admits them, once. Manual
	// acknowledgment with no ack makes every match of the first run one.
	t.Run("recovered-backlog-once", func(t *testing.T) {
		durable := []streamworks.Option{
			streamworks.WithDataDir(t.TempDir()),
			streamworks.WithFsyncPolicy("off"),
			streamworks.WithManualDeliveryAck(true),
		}
		var mu sync.Mutex
		first := make(gen.MatchSet)
		eng := open(t, durable...)
		if _, err := eng.Subscribe("", collectSet(&mu, first)); err != nil {
			t.Fatal(err)
		}
		if err := eng.ProcessBatch(ctx, w.Edges); err != nil {
			t.Fatal(err)
		}
		eng.Close()

		// The restart has the queries from the log; registerAll would be
		// a duplicate.
		eng2 := streamworks.New(append([]streamworks.Option{streamworks.WithEngineConfig(w.Engine)}, durable...)...)
		defer eng2.Close()
		if n := eng2.Durability().RecoveryBacklog; n != uint64(len(first)) {
			t.Fatalf("recovery backlog %d, first run delivered %d", n, len(first))
		}
		const filter = "smurf-ddos"
		var filtered, rest, late []streamworks.Match
		for _, sub := range []struct {
			filter string
			got    *[]streamworks.Match
		}{{filter, &filtered}, {"", &rest}, {"", &late}} {
			if _, err := eng2.Subscribe(sub.filter, streamworks.SinkFunc(func(m streamworks.Match) {
				*sub.got = append(*sub.got, m)
			})); err != nil {
				t.Fatal(err)
			}
		}
		if len(late) != 0 || eng2.Durability().RecoveryBacklog != 0 {
			t.Fatalf("backlog outlived its first subscribers: %d redelivered, %d left",
				len(late), eng2.Durability().RecoveryBacklog)
		}
		if len(filtered) == 0 || len(rest) == 0 {
			t.Fatalf("degenerate backlog: %d filtered, %d other", len(filtered), len(rest))
		}
		union := make(gen.MatchSet)
		for _, m := range filtered {
			if m.Query != filter {
				t.Fatalf("filtered subscription was handed a %s match", m.Query)
			}
			union.AddKey(m.Query, m.Signature)
		}
		for _, m := range rest {
			if m.Query == filter {
				t.Fatalf("a %s match skipped its earlier, filtered subscriber", filter)
			}
			union.AddKey(m.Query, m.Signature)
		}
		if len(union) != len(filtered)+len(rest) || !union.Equal(first) {
			t.Fatalf("backlog delivered %d+%d matches (%d distinct), first run %d",
				len(filtered), len(rest), len(union), len(first))
		}
	})
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

// TestNewStartsNoGoroutine: New's engine runs on its caller's goroutine,
// so building it, registering and streaming start none, and every match has
// reached its sink by the time ProcessBatch returns.
func TestNewStartsNoGoroutine(t *testing.T) {
	w := acceptanceWorkload(t)
	ref, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	before := runtime.NumGoroutine()
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	defer eng.Close()
	registerAll(t, eng, w)
	got := make(gen.MatchSet)
	if _, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) { got.AddKey(m.Query, m.Signature) })); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	streamBatches(t, eng, w, 0, len(w.Edges), 64)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after New, registration and a stream; %d before", after, before)
	}
	if !got.Equal(ref) {
		t.Fatalf("%d matches delivered by the last ProcessBatch return, reference %d", len(got), len(ref))
	}
}
