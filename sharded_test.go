package streamworks_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// smallNetflow is a laptop-scale netflow workload with all four Fig. 3 cyber
// queries.
func smallNetflow(window time.Duration, seed int64) gen.Workload {
	return gen.NetFlowWorkload(gen.NetFlowConfig{
		Hosts:       300,
		Servers:     30,
		Edges:       4000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        seed,
	}, window)
}

// smallNews is a laptop-scale news workload with one query, the Fig. 2
// co-mention pattern.
func smallNews(window time.Duration) gen.Workload {
	return gen.NewsWorkload(gen.NewsConfig{
		Articles:           800,
		Keywords:           150,
		Locations:          25,
		People:             200,
		Orgs:               60,
		KeywordsPerArticle: 3,
		PeoplePerArticle:   2,
		Start:              graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		Gap:                2 * time.Second,
		KeywordSkew:        1.3,
		Seed:               5,
		EventClusters:      4,
		EventArticles:      3,
		EventSpan:          5 * time.Minute,
	}, window, 2)
}

// streamEdgeByEdge hands w's edges to eng one batch of one at a time.
func streamEdgeByEdge(t *testing.T, eng streamworks.Engine, w gen.Workload) {
	t.Helper()
	ctx := context.Background()
	for i := range w.Edges {
		if err := eng.ProcessBatch(ctx, w.Edges[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeliverDoesNotAllocate: handing a match to the subscriptions is the
// delivery lock, the dispatch histogram and the filter — no report is built
// for a match no subscription admits, and nothing allocates.
func TestDeliverDoesNotAllocate(t *testing.T) {
	eng := streamworks.New(streamworks.WithEngineConfig(streamworks.EngineConfig{Obs: obs.Config{Enabled: true}}))
	defer eng.Close()
	ctx := context.Background()
	for _, name := range []string{"q", "other"} {
		q, err := streamworks.ParseQuery("query " + name + "\nvertex a : Host\nvertex b : Host\nedge a -[flow]-> b\n")
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterQuery(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	if _, err := eng.Subscribe("other", streamworks.SinkFunc(func(streamworks.Match) { delivered++ })); err != nil {
		t.Fatal(err)
	}
	ev := core.MatchEvent{Query: "q", Match: &match.Match{}, EmittedWallNS: 1}
	allocbudget.Check(t, "streamworks.Sharded.deliver", func() { streamworks.Deliver(eng, ev) })
	h, ok := eng.ObsSnapshot().Find(obs.SegmentHistogramName, obs.SegDispatch)
	if !ok || h.Count != allocbudget.Runs+1 || delivered != 0 {
		t.Fatalf("%d deliveries timed (found %v), %d sent to a subscription of another query; want %d and 0",
			h.Count, ok, delivered, allocbudget.Runs+1)
	}
}

// TestCloseReturnsAfterTheFinalDelivery: right after Close returns, the sink
// has seen every match the engine emitted — all of them after a stream,
// none on an engine that was sent no edge — and the subscription is done.
func TestCloseReturnsAfterTheFinalDelivery(t *testing.T) {
	w := smallNetflow(time.Minute, 37)
	for _, stream := range []bool{true, false} {
		delivered := 0
		eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
		registerAll(t, eng, w)
		sub, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) { delivered++ }))
		if err != nil {
			t.Fatal(err)
		}
		if stream {
			streamBatches(t, eng, w, 0, len(w.Edges), 250)
		}
		eng.Close()
		select {
		case <-sub.Done():
		default:
			t.Fatalf("streamed=%v: subscription not done when Close returned", stream)
		}
		m, _ := eng.Metrics(context.Background())
		if uint64(delivered) != m.MatchesEmitted || stream && delivered == 0 {
			t.Fatalf("streamed=%v: sink saw %d matches by Close, engine emitted %d", stream, delivered, m.MatchesEmitted)
		}
	}
}

// TestEachMatchReachesTheSinkOnce: on four queries (netflow), one (news)
// and five on balanced plans under drift, every match the sink is handed is
// a distinct one, and together they are exactly the oracle's set.
func TestEachMatchReachesTheSinkOnce(t *testing.T) {
	drift := gen.BenchDriftWorkload(12_000, 400, 10*time.Second)
	for _, tc := range []struct {
		name string
		w    gen.Workload
		opts streamworks.RegisterOptions
	}{
		{"netflow", smallNetflow(30*time.Second, 31), streamworks.RegisterOptions{}},
		{"news", smallNews(5 * time.Minute), streamworks.RegisterOptions{}},
		{"drift balanced", drift, streamworks.RegisterOptions{Strategy: string(decompose.StrategyBalanced)}},
	} {
		oracle := gen.Oracle(tc.w)
		if len(oracle) == 0 {
			t.Fatalf("%s: degenerate workload, no matches", tc.name)
		}
		received, set := 0, make(gen.MatchSet)
		eng := streamworks.New(streamworks.WithEngineConfig(tc.w.Engine))
		for _, q := range tc.w.Queries {
			if err := eng.RegisterQueryWith(context.Background(), q, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
			received++
			set.AddKey(m.Query, m.Signature)
		})); err != nil {
			t.Fatal(err)
		}
		streamEdgeByEdge(t, eng, tc.w)
		eng.Close()
		if received != len(set) {
			t.Errorf("%s: %d matches reached the sink for %d distinct ones", tc.name, received, len(set))
		}
		if !set.Equal(oracle) {
			t.Errorf("%s: %d matches, oracle %d", tc.name, len(set), len(oracle))
		}
	}
}

// TestSinkNeverEnteredConcurrently: while the driver delivers its matches
// on its own goroutine, another goroutine takes the delivery lock over and
// over, as a recovered backlog's delivery does, yet the sink and that
// goroutine's calls are never inside at once.
func TestSinkNeverEnteredConcurrently(t *testing.T) {
	w := smallNetflow(30*time.Second, 41)
	var inFlight atomic.Int32
	var calls, delivered, exclusive int
	enter := func() {
		if n := inFlight.Add(1); n > 1 {
			t.Errorf("entered with %d calls in flight", n)
		}
		calls++ // unsynchronized: -race flags overlapping calls too
		time.Sleep(10 * time.Microsecond)
		inFlight.Add(-1)
	}
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	registerAll(t, eng, w)
	if _, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {
		delivered++
		enter()
	})); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				streamworks.Exclusive(eng, func() {
					exclusive++
					enter()
				})
			}
		}
	}()
	streamEdgeByEdge(t, eng, w)
	close(stop)
	<-done
	eng.Close()
	if m, _ := eng.Metrics(context.Background()); delivered == 0 || exclusive == 0 || uint64(delivered) != m.MatchesEmitted || calls != delivered+exclusive {
		t.Fatalf("sink saw %d matches, engine emitted %d, %d exclusive calls, %d in all", delivered, m.MatchesEmitted, exclusive, calls)
	}
}
