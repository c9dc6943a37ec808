package shard_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
)

// smallNetflow is a laptop-scale netflow workload with all four Fig. 3 cyber
// queries (every one has a hub vertex, so it exercises endpoint routing).
func smallNetflow(window time.Duration, seed int64) gen.Workload {
	cfg := gen.NetFlowConfig{
		Hosts:       300,
		Servers:     30,
		Edges:       4000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        seed,
	}
	return gen.NetFlowWorkload(cfg, window)
}

// smallNews is a laptop-scale news workload; its Fig. 2 co-mention query has
// no hub vertex, so it lives on shard 0 alone.
func smallNews(window time.Duration) gen.Workload {
	cfg := gen.NewsConfig{
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
	}
	return gen.NewsWorkload(cfg, window, 2)
}

func requireEqualSets(t *testing.T, w gen.Workload, shards int) {
	t.Helper()
	single, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("single run: %v", err)
	}
	if len(single) == 0 {
		t.Fatalf("degenerate workload %q: no matches at all", w.Name)
	}
	sharded, m, err := gen.RunSharded(w, shards)
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if !single.Equal(sharded) {
		t.Fatalf("workload %q: single engine found %d matches, %d-shard engine %d",
			w.Name, len(single), shards, len(sharded))
	}
	if m.MatchesEmitted != uint64(len(sharded)) {
		t.Fatalf("aggregated MatchesEmitted = %d, want %d deduplicated", m.MatchesEmitted, len(sharded))
	}
}

func TestShardedEqualsSingleOnNetflow(t *testing.T) {
	requireEqualSets(t, smallNetflow(time.Minute, 11), 4)
}

func TestShardedEqualsSingleOnNetflowTightWindow(t *testing.T) {
	// A window shorter than the stream span forces edge expiry and pruning
	// while matching is in flight; watermark broadcasts keep idle shards
	// expiring at the same pace.
	requireEqualSets(t, smallNetflow(2*time.Second, 13), 4)
}

func TestShardedEqualsSingleOnNews(t *testing.T) {
	requireEqualSets(t, smallNews(5*time.Minute), 4)
}

func TestShardedEqualsSingleAcrossShardCounts(t *testing.T) {
	w := smallNetflow(30*time.Second, 17)
	single, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		sharded, _, err := gen.RunSharded(w, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !single.Equal(sharded) {
			t.Fatalf("shards=%d: %d matches vs single %d", shards, len(sharded), len(single))
		}
	}
}

func TestShardedMetricsAggregate(t *testing.T) {
	w := smallNetflow(time.Minute, 19)
	_, m, err := gen.RunSharded(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Registrations != uint64(len(w.Queries)) {
		t.Fatalf("Registrations = %d, want %d", m.Registrations, len(w.Queries))
	}
	if len(m.Queries) != len(w.Queries) {
		t.Fatalf("per-query metrics for %d queries, want %d", len(m.Queries), len(w.Queries))
	}
	// Endpoint routing delivers each edge to at most two shards, so the
	// summed EdgesProcessed is bounded by twice the stream (all netflow
	// queries have hub vertices: nothing is broadcast).
	n := uint64(len(w.Edges))
	if m.EdgesProcessed < n || m.EdgesProcessed > 2*n {
		t.Fatalf("EdgesProcessed = %d, want within [%d, %d]", m.EdgesProcessed, n, 2*n)
	}
	if m.LocalSearches == 0 {
		t.Fatalf("no local searches counted")
	}
	var matches uint64
	for _, qm := range m.Queries {
		matches += qm.Matches
	}
	if matches != m.MatchesEmitted {
		t.Fatalf("per-query matches %d do not sum to MatchesEmitted %d", matches, m.MatchesEmitted)
	}
}

func TestShardedRegisterErrorsRollBack(t *testing.T) {
	cfg := shard.Config{Shards: 4}
	cfg.Engine.Retention = time.Second
	matched := 0
	cfg.Sink = core.MatchSinkFunc(func(core.MatchEvent) { matched++ })
	s := shard.New(&cfg)
	if err := s.RegisterQuery(nil); !errors.Is(err, core.ErrNilQuery) {
		t.Fatalf("nil query: %v", err)
	}
	if err := s.RegisterQuery(gen.SmurfQuery(time.Second)); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := s.RegisterQuery(gen.SmurfQuery(time.Second)); !errors.Is(err, core.ErrDuplicateQuery) {
		t.Fatalf("duplicate: %v", err)
	}
	// After the duplicate failure the engine still runs and matches.
	for _, se := range smallNetflow(time.Second, 23).Edges {
		if err := s.Process(se); err != nil {
			t.Fatalf("run after failed registration: %v", err)
		}
	}
	s.Close()
	if matched == 0 {
		t.Fatal("no match after the failed registrations")
	}
}

func TestShardedMidStreamRegistration(t *testing.T) {
	cfg := shard.Config{Shards: 4}
	cfg.Engine.Retention = time.Minute
	var got []core.MatchEvent // read after Close, which returns after the final sink call
	cfg.Sink = core.MatchSinkFunc(func(ev core.MatchEvent) { got = append(got, ev) })
	s := shard.New(&cfg)
	if err := s.RegisterQuery(gen.SmurfQuery(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	w := smallNetflow(30*time.Second, 29)
	half := len(w.Edges) / 2
	for _, se := range w.Edges[:half] {
		s.Process(se)
	}
	// Mid-stream: a second query within retention registers on every shard...
	if err := s.RegisterQuery(gen.WormQuery(30 * time.Second)); err != nil {
		t.Fatalf("mid-stream registration: %v", err)
	}
	// ...while one needing more retention than is in force is rejected
	// atomically (every shard has seen edges by now).
	if err := s.RegisterQuery(gen.WormChainQuery(5 * time.Minute)); !errors.Is(err, core.ErrRetentionTooSmall) {
		t.Fatalf("wide mid-stream registration: %v", err)
	}
	// Unregistering mid-stream stops the query everywhere; the rejected
	// query must have left no partial registration behind.
	if err := s.UnregisterQuery("smurf-ddos"); err != nil {
		t.Fatalf("mid-stream unregister: %v", err)
	}
	if err := s.UnregisterQuery("worm-chain"); !errors.Is(err, core.ErrUnknownQuery) {
		t.Fatalf("rolled-back query still present somewhere: %v", err)
	}
	for _, se := range w.Edges[half:] {
		s.Process(se)
	}
	s.Close()
	m := s.Metrics()
	if len(m.Queries) != 1 || m.Queries[0].Name != "worm-hop" {
		t.Fatalf("surviving registrations = %+v, want only worm-hop", m.Queries)
	}
	// No event for the unregistered query may postdate the second half of
	// the stream: its shard-local state was dropped before those edges.
	// (Events from the first half are fine.)
	for _, ev := range got {
		if ev.Query != "smurf-ddos" && ev.Query != "worm-hop" {
			t.Fatalf("event for unknown query: %v", ev)
		}
	}
}

// TestShardedProcessBeforeStartRunsOnCaller: a lone shard processes an edge
// on the caller's goroutine, so the sink has seen the match it completes
// before Process returns, and Flush has nothing to wait for. The sink reads
// inCall without synchronization: under the race detector a delivery from
// any other goroutine fails the test.
func TestShardedProcessBeforeStartRunsOnCaller(t *testing.T) {
	inCall, matched := false, 0
	s := shard.New(&shard.Config{Shards: 1, Sink: core.MatchSinkFunc(func(core.MatchEvent) {
		if !inCall {
			t.Error("match delivered outside the Process call")
		}
		matched++
	})})
	defer s.Close()
	if err := s.RegisterQuery(gen.SmurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	for i, typ := range []string{gen.EdgeICMPReq, gen.EdgeICMPReply} {
		se := graph.StreamEdge{
			Edge:       graph.Edge{ID: graph.EdgeID(i + 1), Source: graph.VertexID(i + 1), Target: graph.VertexID(i + 2), Type: typ, Timestamp: graph.Timestamp(100 + i)},
			SourceType: gen.TypeHost, TargetType: gen.TypeHost,
		}
		inCall = true
		if err := s.Process(se); err != nil {
			t.Fatalf("Process: %v", err)
		}
		inCall = false
	}
	if matched != 1 {
		t.Fatalf("%d matches delivered by the time Process returned, want 1", matched)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestShardedHubFreeQueryRejectedMidStream(t *testing.T) {
	w := smallNews(5 * time.Minute)
	cfg := shard.Config{Shards: 4}
	cfg.Engine = w.Engine
	s := shard.New(&cfg)
	// Before any edges: fine (this is how NewsWorkload runs normally).
	if err := s.RegisterQuery(w.Queries[0]); err != nil {
		t.Fatalf("pre-stream hub-free registration: %v", err)
	}
	if err := s.UnregisterQuery(w.Queries[0].Name()); err != nil {
		t.Fatal(err)
	}
	for _, se := range w.Edges[:100] {
		s.Process(se)
	}
	// Mid-stream the query's edge types were endpoint-partitioned, not
	// broadcast: shards lack the history it needs, so it is rejected loudly
	// instead of silently missing matches.
	if err := s.RegisterQuery(w.Queries[0]); !errors.Is(err, shard.ErrBroadcastRequired) {
		t.Fatalf("mid-stream hub-free registration: %v, want ErrBroadcastRequired", err)
	}
	// Hub queries are unaffected.
	if err := s.RegisterQuery(gen.SmurfQuery(w.Engine.Retention)); err != nil {
		t.Fatalf("mid-stream hub registration: %v", err)
	}
	s.Close()
}

// TestShardedRefusesUnnamedQuery: every shard's engine refuses a query
// without a name, alone or beside a hub-free query on shard 0, and the
// refusal leaves no registration behind on any shard.
func TestShardedRefusesUnnamedQuery(t *testing.T) {
	unnamed := func() *query.Graph {
		return query.NewBuilder("").
			Vertex("a", gen.TypeHost).
			Vertex("b", gen.TypeHost).
			Edge("a", "b", gen.EdgeFlow).
			MustBuild()
	}
	s := shard.New(&shard.Config{Shards: 2})
	defer s.Close()
	if err := s.RegisterQuery(unnamed()); !errors.Is(err, core.ErrUnnamedQuery) {
		t.Fatalf("unnamed hub query alone: %v, want ErrUnnamedQuery", err)
	}
	if m := s.Metrics(); m.Registrations != 0 || len(m.Queries) != 0 {
		t.Fatalf("refused registration left %d registrations, %d query views behind", m.Registrations, len(m.Queries))
	}
	s = shard.New(&shard.Config{Shards: 2, Engine: smallNews(time.Minute).Engine})
	defer s.Close()
	if err := s.RegisterQuery(smallNews(time.Minute).Queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterQuery(unnamed()); !errors.Is(err, core.ErrUnnamedQuery) {
		t.Fatalf("unnamed hub query beside a hub-free one: %v, want ErrUnnamedQuery", err)
	}
	if m := s.Metrics(); m.Registrations != 1 || len(m.Queries) != 1 {
		t.Fatalf("refused registration left %d registrations, %d query views behind", m.Registrations, len(m.Queries))
	}
}

func TestShardedExplicitAdvanceExpires(t *testing.T) {
	cfg := shard.Config{Shards: 2}
	cfg.Engine.Retention = 10 * time.Second
	s := shard.New(&cfg)
	if err := s.RegisterQuery(gen.SmurfQuery(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	for i := 0; i < 64; i++ {
		s.Process(graph.StreamEdge{
			Edge: graph.Edge{
				ID:        graph.EdgeID(i + 1),
				Source:    graph.VertexID(i),
				Target:    graph.VertexID(i + 1000),
				Type:      gen.EdgeFlow,
				Timestamp: base.Add(time.Duration(i) * time.Second / 4),
			},
			SourceType: gen.TypeHost,
			TargetType: gen.TypeHost,
		})
	}
	// Jump stream time far past the window on every shard: all edges expire
	// even on shards that received nothing since.
	s.Advance(base.Add(time.Hour))
	s.Close()
	m := s.Metrics()
	if m.LiveEdges != 0 {
		t.Fatalf("explicit advance left %d live edges", m.LiveEdges)
	}
	// Each edge is delivered to one or two shards; every delivered copy must
	// have expired.
	if m.ExpiredEdges < 64 || m.ExpiredEdges != m.EdgesProcessed {
		t.Fatalf("ExpiredEdges = %d of %d processed", m.ExpiredEdges, m.EdgesProcessed)
	}
}

// TestShardedWideningAfterAdvanceKeepsTheWatermark: an Advance moves the
// front-end's clock before a registration widens the retention, and the
// widening keeps its watermark, so an edge far behind it is counted and
// dropped by the front-end and reaches no shard.
func TestShardedWideningAfterAdvanceKeepsTheWatermark(t *testing.T) {
	cfg := shard.Config{Shards: 2}
	cfg.Engine.Retention = 5 * time.Second
	s := shard.New(&cfg)
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	s.Advance(base.Add(100 * time.Second))
	if err := s.RegisterQuery(gen.SmurfQuery(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		s.Process(graph.StreamEdge{
			Edge: graph.Edge{
				ID:        graph.EdgeID(i + 1),
				Source:    graph.VertexID(i),
				Target:    graph.VertexID(i + 1000),
				Type:      gen.EdgeFlow,
				Timestamp: base.Add(time.Second),
			},
			SourceType: gen.TypeHost,
			TargetType: gen.TypeHost,
		})
	}
	s.Close()
	if m := s.Metrics(); m.EdgesDropped != 16 || m.EdgesProcessed != 0 {
		t.Errorf("%d of 16 edges 99s behind the watermark dropped, %d admitted", m.EdgesDropped, m.EdgesProcessed)
	}
	for i, m := range s.PerShardMetrics() {
		if m.EdgesDropped != 0 || m.EdgesProcessed != 0 {
			t.Errorf("shard %d was routed %d dropped and %d admitted edges", i, m.EdgesDropped, m.EdgesProcessed)
		}
	}
}

// TestEachMatchReachesTheSinkOnce: on hub queries (netflow), a hub-free
// query (news) and hub queries on balanced plans under drift, at 2, 3 and 4
// shards, every match the sink is handed is a distinct one — no shard
// delivers a match another shard owns — and together they are exactly the
// oracle's set.
func TestEachMatchReachesTheSinkOnce(t *testing.T) {
	drift := gen.BenchDriftWorkload(12_000, 400, 10*time.Second)
	for _, tc := range []struct {
		name string
		w    gen.Workload
		opts []core.RegistrationOption
	}{
		{"netflow", smallNetflow(30*time.Second, 31), nil},
		{"news", smallNews(5 * time.Minute), nil},
		{"drift balanced", drift, []core.RegistrationOption{core.WithStrategy(decompose.StrategyBalanced)}},
	} {
		oracle := gen.Oracle(tc.w)
		if len(oracle) == 0 {
			t.Fatalf("%s: degenerate workload, no matches", tc.name)
		}
		for _, shards := range []int{2, 3, 4} {
			received, set := 0, make(gen.MatchSet)
			s := shard.New(&shard.Config{Shards: shards, Engine: tc.w.Engine,
				Sink: core.MatchSinkFunc(func(ev core.MatchEvent) {
					received++
					set.Add(ev)
				})})
			for _, q := range tc.w.Queries {
				if err := s.RegisterQuery(q, tc.opts...); err != nil {
					t.Fatal(err)
				}
			}
			for _, se := range tc.w.Edges {
				if err := s.Process(se); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			if received != len(set) {
				t.Errorf("%s, %d shards: %d events reached the sink for %d distinct matches", tc.name, shards, received, len(set))
			}
			if !set.Equal(oracle) {
				t.Errorf("%s, %d shards: %d matches, oracle %d", tc.name, shards, len(set), len(oracle))
			}
		}
	}
}

// TestSinkNeverEnteredConcurrently: four shards find and deliver the hub
// queries' matches on their own goroutines, yet the sink is never entered
// while another call is still inside it.
func TestSinkNeverEnteredConcurrently(t *testing.T) {
	w := smallNetflow(30*time.Second, 41)
	var inFlight atomic.Int32
	var delivered int
	s := shard.New(&shard.Config{Shards: 4, Engine: w.Engine,
		Sink: core.MatchSinkFunc(func(core.MatchEvent) {
			if n := inFlight.Add(1); n > 1 {
				t.Errorf("sink entered with %d calls in flight", n)
			}
			delivered++ // unsynchronized: -race flags overlapping calls too
			time.Sleep(10 * time.Microsecond)
			inFlight.Add(-1)
		})})
	for _, q := range w.Queries {
		if err := s.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, se := range w.Edges {
		if err := s.Process(se); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if m := s.Metrics(); delivered == 0 || uint64(delivered) != m.MatchesEmitted {
		t.Fatalf("sink saw %d matches, engine emitted %d", delivered, m.MatchesEmitted)
	}
}

// TestReregistrationCountsFromZero: UnregisterQuery forgets the query's
// query_matches_emitted series on every shard, so it leaves the snapshot and
// a registration under the same name counts from zero, as on one engine.
func TestReregistrationCountsFromZero(t *testing.T) {
	w := smallNetflow(2*time.Second, 1)
	s := shard.New(&shard.Config{Shards: 2, Engine: w.Engine})
	defer s.Close()
	smurf := gen.SmurfQuery(2 * time.Second)
	if err := s.RegisterQuery(smurf); err != nil {
		t.Fatal(err)
	}
	for _, se := range w.Edges {
		if err := s.Process(se); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Queries[0].Matches == 0 {
		t.Fatalf("degenerate workload: %s matched nothing", smurf.Name())
	}
	if err := s.UnregisterQuery(smurf.Name()); err != nil {
		t.Fatal(err)
	}
	for _, c := range s.ObsSnapshot().Counters {
		if c.LabelValue == smurf.Name() {
			t.Errorf("%s{%s} = %d survives UnregisterQuery", c.Name, c.LabelValue, c.Value)
		}
	}
	if err := s.RegisterQuery(smurf); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Queries[0].Matches; got != 0 {
		t.Errorf("re-registered %s starts from %d matches, want 0", smurf.Name(), got)
	}
}
