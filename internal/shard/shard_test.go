package shard_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
)

// subscribe hands sink every match the backend s drives delivers, on the
// goroutine driving s.
func subscribe(t *testing.T, s *shard.ShardedEngine, sink func(streamworks.Match)) {
	t.Helper()
	if _, err := shard.Backend(s).Subscribe("", streamworks.SinkFunc(sink)); err != nil {
		t.Fatal(err)
	}
}

// smallNetflow is a laptop-scale netflow workload with all four Fig. 3 cyber
// queries.
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

// smallNews is a laptop-scale news workload with one query, the Fig. 2
// co-mention pattern.
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

// runFrontEnd replays w through the engine built with the given shard
// count, as benchmark/ builds it, and returns what its subscription was
// sent, its Metrics and its PerShardMetrics.
func runFrontEnd(t *testing.T, w gen.Workload, shards int) (gen.MatchSet, core.Metrics, []core.Metrics) {
	t.Helper()
	set := make(gen.MatchSet)
	s := shard.New(&shard.Config{Shards: shards, Engine: w.Engine})
	defer s.Close()
	subscribe(t, s, func(m streamworks.Match) {
		if !set.AddKey(m.Query, m.Signature) {
			t.Errorf("Shards %d: %s %s sent twice", shards, m.Query, m.Signature)
		}
	})
	for _, q := range w.Queries {
		if err := s.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := range w.Edges {
		if err := s.Process(w.Edges[i]); err != nil {
			t.Fatal(err)
		}
	}
	return set, s.Metrics(), s.PerShardMetrics()
}

// requireEqualSets: the engine built with the given shard count sends what
// the public backend sends, once each, and counts each match once.
func requireEqualSets(t *testing.T, w gen.Workload, shards int) {
	t.Helper()
	single, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("single run: %v", err)
	}
	if len(single) == 0 {
		t.Fatalf("degenerate workload %q: no matches at all", w.Name)
	}
	sharded, m, _ := runFrontEnd(t, w, shards)
	if !single.Equal(sharded) {
		t.Fatalf("workload %q: public backend found %d matches, the Shards %d engine %d",
			w.Name, len(single), shards, len(sharded))
	}
	if m.MatchesEmitted != uint64(len(sharded)) {
		t.Fatalf("MatchesEmitted = %d, want %d deduplicated", m.MatchesEmitted, len(sharded))
	}
}

func TestShardedEqualsSingleOnNetflow(t *testing.T) {
	requireEqualSets(t, smallNetflow(time.Minute, 11), 4)
}

func TestShardedEqualsSingleOnNetflowTightWindow(t *testing.T) {
	// A window shorter than the stream span forces edge expiry and pruning
	// while matching is in flight.
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
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sharded, _, _ := runFrontEnd(t, w, shards)
			if !single.Equal(sharded) {
				t.Fatalf("%d matches vs single %d", len(sharded), len(single))
			}
		})
	}
}

// TestShardedMetricsAggregate: with Shards: 4 the Metrics is the one
// engine's view: every query, every edge counted once, and the
// per-query matches summing to MatchesEmitted. PerShardMetrics is that
// view alone.
func TestShardedMetricsAggregate(t *testing.T) {
	w := smallNetflow(time.Minute, 19)
	_, m, perShard := runFrontEnd(t, w, 4)
	if m.Registrations != uint64(len(w.Queries)) {
		t.Fatalf("Registrations = %d, want %d", m.Registrations, len(w.Queries))
	}
	if len(m.Queries) != len(w.Queries) {
		t.Fatalf("per-query metrics for %d queries, want %d", len(m.Queries), len(w.Queries))
	}
	for i, qm := range m.Queries {
		if qm.Name != w.Queries[i].Name() {
			t.Errorf("query view %d is %s, want %s in registration order", i, qm.Name, w.Queries[i].Name())
		}
	}
	if n := uint64(len(w.Edges)); m.EdgesProcessed != n {
		t.Fatalf("EdgesProcessed = %d, want the stream's %d", m.EdgesProcessed, n)
	}
	if m.LocalSearches == 0 {
		t.Fatalf("no local searches counted")
	}
	var matches uint64
	for _, qm := range m.Queries {
		matches += qm.Matches
	}
	if matches != m.MatchesEmitted || matches == 0 {
		t.Fatalf("per-query matches %d do not sum to MatchesEmitted %d", matches, m.MatchesEmitted)
	}
	if len(perShard) != 1 || !reflect.DeepEqual(perShard[0], m) {
		t.Fatalf("PerShardMetrics holds %d views, want Metrics alone", len(perShard))
	}
}

// TestShardsIsReadByNothing: benchmark/ builds the engine with Shards: 2.
// It runs the one engine every count runs: the match set and Metrics of
// Shards 0, 2 and 4 are those of Shards 1, and PerShardMetrics is that one
// view alone.
func TestShardsIsReadByNothing(t *testing.T) {
	w := smallNetflow(30*time.Second, 43)
	refSet, refMetrics, _ := runFrontEnd(t, w, 1)
	if len(refSet) == 0 {
		t.Fatal("degenerate workload: no matches")
	}
	for _, shards := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			set, m, perShard := runFrontEnd(t, w, shards)
			if !set.Equal(refSet) {
				t.Errorf("%d matches, Shards 1 %d", len(set), len(refSet))
			}
			if !reflect.DeepEqual(m, refMetrics) {
				t.Errorf("Metrics %+v, Shards 1 %+v", m, refMetrics)
			}
			if len(perShard) != 1 || !reflect.DeepEqual(perShard[0], m) {
				t.Errorf("PerShardMetrics holds %d views, want the engine's one", len(perShard))
			}
		})
	}
}

func TestShardedRegisterErrorsRollBack(t *testing.T) {
	var cfg shard.Config
	cfg.Engine.Retention = time.Second
	matched := 0
	s := shard.New(&cfg)
	subscribe(t, s, func(streamworks.Match) { matched++ })
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
	var cfg shard.Config
	cfg.Engine.Retention = time.Minute
	var got []streamworks.Match // read after Close, which returns after the final sink call
	s := shard.New(&cfg)
	subscribe(t, s, func(m streamworks.Match) { got = append(got, m) })
	ctx := context.Background()
	if err := s.RegisterQuery(gen.SmurfQuery(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	w := smallNetflow(30*time.Second, 29)
	half := len(w.Edges) / 2
	for _, se := range w.Edges[:half] {
		s.Process(se)
	}
	// Mid-stream: a second query within retention registers...
	if err := s.RegisterQuery(gen.WormQuery(30 * time.Second)); err != nil {
		t.Fatalf("mid-stream registration: %v", err)
	}
	// ...while one needing more retention than is in force is rejected.
	if err := s.RegisterQuery(gen.WormChainQuery(5 * time.Minute)); !errors.Is(err, core.ErrRetentionTooSmall) {
		t.Fatalf("wide mid-stream registration: %v", err)
	}
	// Unregistering mid-stream stops the query; the rejected query must
	// have left no registration behind.
	if err := shard.Backend(s).UnregisterQuery(ctx, "smurf-ddos"); err != nil {
		t.Fatalf("mid-stream unregister: %v", err)
	}
	if err := shard.Backend(s).UnregisterQuery(ctx, "worm-chain"); !errors.Is(err, core.ErrUnknownQuery) {
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
	// No match for the unregistered query may postdate the second half of
	// the stream: its state was dropped before those edges. (Matches from
	// the first half are fine.)
	for _, m := range got {
		if m.Query != "smurf-ddos" && m.Query != "worm-hop" {
			t.Fatalf("match for unknown query: %v", m)
		}
	}
}

// TestShardedProcessBeforeStartRunsOnCaller: the engine processes an edge
// on the caller's goroutine, so the sink has seen the match it completes
// before Process returns, and Flush has nothing to wait for. The sink reads
// inCall without synchronization: under the race detector a delivery from
// any other goroutine fails the test.
func TestShardedProcessBeforeStartRunsOnCaller(t *testing.T) {
	inCall, matched := false, 0
	s := shard.New(nil)
	defer s.Close()
	subscribe(t, s, func(streamworks.Match) {
		if !inCall {
			t.Error("match delivered outside the Process call")
		}
		matched++
	})
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

// TestShardedHubFreeQueryRegistersMidStream: the Fig. 2 query, in which no
// pattern vertex touches every edge, registers a third of the way into the
// stream on the engine built with Shards: 4 and is sent exactly what a bare
// core engine sends it.
func TestShardedHubFreeQueryRegistersMidStream(t *testing.T) {
	w := smallNews(5 * time.Minute)
	split := len(w.Edges) / 3
	single := make(gen.MatchSet)
	e := core.New(&w.Engine)
	e.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) { single.Add(ev) }))
	sharded := make(gen.MatchSet)
	s := shard.New(&shard.Config{Shards: 4, Engine: w.Engine})
	defer s.Close()
	subscribe(t, s, func(m streamworks.Match) { sharded.AddKey(m.Query, m.Signature) })
	for _, q := range []*query.Graph{gen.SmurfQuery(w.Engine.Retention)} {
		if _, err := e.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	for i, se := range w.Edges {
		if i == split {
			if _, err := e.RegisterQuery(w.Queries[0]); err != nil {
				t.Fatalf("core engine: mid-stream registration: %v", err)
			}
			if err := s.RegisterQuery(w.Queries[0]); err != nil {
				t.Fatalf("Shards: 4: mid-stream registration: %v", err)
			}
		}
		e.ProcessEdge(se)
		if err := s.Process(se); err != nil {
			t.Fatal(err)
		}
	}
	if len(single) == 0 {
		t.Fatal("degenerate workload: the late query matched nothing")
	}
	if !single.Equal(sharded) {
		t.Fatalf("Shards: 4 sent %d matches, one core engine %d", len(sharded), len(single))
	}
}

// TestShardedRefusesUnnamedQuery: a query without a name is refused, alone
// or beside a registered query, and the refusal leaves no registration
// behind.
func TestShardedRefusesUnnamedQuery(t *testing.T) {
	unnamed := func() *query.Graph {
		return query.NewBuilder("").
			Vertex("a", gen.TypeHost).
			Vertex("b", gen.TypeHost).
			Edge("a", "b", gen.EdgeFlow).
			MustBuild()
	}
	s := shard.New(nil)
	defer s.Close()
	if err := s.RegisterQuery(unnamed()); !errors.Is(err, core.ErrUnnamedQuery) {
		t.Fatalf("unnamed query alone: %v, want ErrUnnamedQuery", err)
	}
	if m := s.Metrics(); m.Registrations != 0 || len(m.Queries) != 0 {
		t.Fatalf("refused registration left %d registrations, %d query views behind", m.Registrations, len(m.Queries))
	}
	s = shard.New(&shard.Config{Engine: smallNews(time.Minute).Engine})
	defer s.Close()
	if err := s.RegisterQuery(smallNews(time.Minute).Queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterQuery(unnamed()); !errors.Is(err, core.ErrUnnamedQuery) {
		t.Fatalf("unnamed query beside a registered one: %v, want ErrUnnamedQuery", err)
	}
	if m := s.Metrics(); m.Registrations != 1 || len(m.Queries) != 1 {
		t.Fatalf("refused registration left %d registrations, %d query views behind", m.Registrations, len(m.Queries))
	}
}

func TestShardedExplicitAdvanceExpires(t *testing.T) {
	var cfg shard.Config
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
	// Jump stream time far past the window: every edge expires.
	if err := shard.Backend(s).Advance(context.Background(), base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	m := s.Metrics()
	if m.LiveEdges != 0 {
		t.Fatalf("explicit advance left %d live edges", m.LiveEdges)
	}
	if m.ExpiredEdges != 64 || m.EdgesProcessed != 64 {
		t.Fatalf("ExpiredEdges = %d of %d processed", m.ExpiredEdges, m.EdgesProcessed)
	}
}

// TestShardedAdvanceReachesEveryFedShard: with Shards: 3 there is one
// engine, and an Advance reaches it, so it expires its whole window.
func TestShardedAdvanceReachesEveryFedShard(t *testing.T) {
	cfg := shard.Config{Shards: 3}
	cfg.Engine.Retention = 10 * time.Second
	s := shard.New(&cfg)
	defer s.Close()
	for _, q := range []*query.Graph{gen.SmurfQuery(10 * time.Second), gen.WormQuery(10 * time.Second)} {
		if err := s.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	base := graph.TimestampFromTime(time.Unix(2000, 0))
	for i := 0; i < 64; i++ {
		if err := s.Process(flowEdge(i+1, graph.VertexID(i), graph.VertexID(i+500), base.Add(time.Duration(i)*10*time.Millisecond))); err != nil {
			t.Fatal(err)
		}
	}
	if err := shard.Backend(s).Advance(context.Background(), base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	perShard := s.PerShardMetrics()
	if len(perShard) != 1 {
		t.Fatalf("PerShardMetrics holds %d views, want the engine's one", len(perShard))
	}
	if m := perShard[0]; m.EdgesProcessed != 64 || m.ExpiredEdges != 64 || m.LiveEdges != 0 {
		t.Errorf("%d edges processed, %d expired, %d live; want 64, 64, 0", m.EdgesProcessed, m.ExpiredEdges, m.LiveEdges)
	}
}

// TestShardedWideningAfterAdvanceKeepsTheWatermark: an Advance moves the
// window's clock before a registration widens the retention, and the
// widening keeps its watermark, so an edge far behind it is counted and
// dropped before it reaches the window.
func TestShardedWideningAfterAdvanceKeepsTheWatermark(t *testing.T) {
	var cfg shard.Config
	cfg.Engine.Retention = 5 * time.Second
	s := shard.New(&cfg)
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	if err := shard.Backend(s).Advance(context.Background(), base.Add(100*time.Second)); err != nil {
		t.Fatal(err)
	}
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
	if m := s.Metrics(); m.EdgesDropped != 16 || m.EdgesProcessed != 0 || m.LiveEdges != 0 {
		t.Errorf("%d of 16 edges 99s behind the watermark dropped, %d admitted, %d live", m.EdgesDropped, m.EdgesProcessed, m.LiveEdges)
	}
}

// TestReregistrationCountsFromZero: UnregisterQuery forgets the query's
// series, so it leaves the snapshot and
// a registration under the same name counts from zero, as on one engine.
func TestReregistrationCountsFromZero(t *testing.T) {
	w := smallNetflow(2*time.Second, 1)
	s := shard.New(&shard.Config{Engine: w.Engine})
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
	if err := shard.Backend(s).UnregisterQuery(context.Background(), smurf.Name()); err != nil {
		t.Fatal(err)
	}
	for _, c := range shard.Backend(s).ObsSnapshot().Counters {
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
