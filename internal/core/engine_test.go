package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/query"
)

func smurfQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("smurf").
		Window(window).
		Vertex("attacker", "Host").
		Vertex("amplifier", "Host").
		Vertex("victim", "Host").
		Edge("attacker", "amplifier", "icmp_echo_req").
		Edge("amplifier", "victim", "icmp_echo_reply").
		MustBuild()
}

func hostEdge(id graph.EdgeID, src, dst graph.VertexID, typ string, ts graph.Timestamp) graph.StreamEdge {
	return graph.StreamEdge{
		Edge:       graph.Edge{ID: id, Source: src, Target: dst, Type: typ, Timestamp: ts},
		SourceType: "Host",
		TargetType: "Host",
	}
}

// queryMatches reads the matches the named query was sent from the engine's
// per-query metrics.
func queryMatches(e *Engine, name string) uint64 {
	for _, q := range e.Metrics().Queries {
		if q.Name == name {
			return q.Matches
		}
	}
	return 0
}

func TestEngineDetectsSmurfPattern(t *testing.T) {
	e := New(nil)
	if _, err := e.RegisterQuery(smurfQuery(time.Minute)); err != nil {
		t.Fatalf("RegisterQuery: %v", err)
	}
	base := graph.TimestampFromTime(time.Unix(1000, 0))
	edges := []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 5, 6, "dns", base.Add(time.Second)),
		hostEdge(3, 2, 3, "icmp_echo_reply", base.Add(2*time.Second)),
	}
	var events []MatchEvent
	for _, se := range edges {
		events = append(events, e.ProcessEdge(se)...)
	}
	if len(events) != 1 {
		t.Fatalf("expected 1 match event, got %d", len(events))
	}
	ev := events[0]
	if ev.Query != "smurf" {
		t.Fatalf("event query = %q", ev.Query)
	}
	amp, _ := ev.Match.Vertex(1)
	if amp != 2 {
		t.Fatalf("amplifier binding = %v", amp)
	}
	if queryMatches(e, "smurf") != 1 {
		t.Fatalf("registration match counter = %d", queryMatches(e, "smurf"))
	}
	if ev.String() == "" {
		t.Fatalf("event String() empty")
	}
}

func TestEngineWindowPreventsStaleMatch(t *testing.T) {
	e := New(nil)
	if _, err := e.RegisterQuery(smurfQuery(time.Second)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(2000, 0))
	var events []MatchEvent
	events = append(events, e.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base))...)
	// The reply arrives 10s later: outside the 1s query window.
	events = append(events, e.ProcessEdge(hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(10*time.Second)))...)
	if len(events) != 0 {
		t.Fatalf("stale match reported: %v", events)
	}
	// A fresh request followed quickly by a reply still matches.
	events = append(events, e.ProcessEdge(hostEdge(3, 7, 8, "icmp_echo_req", base.Add(20*time.Second)))...)
	events = append(events, e.ProcessEdge(hostEdge(4, 8, 9, "icmp_echo_reply", base.Add(20*time.Second+500*time.Millisecond)))...)
	if len(events) != 1 {
		t.Fatalf("fresh match not reported: %v", events)
	}
}

func TestEngineRegistrationErrors(t *testing.T) {
	e := New(nil)
	if _, err := e.RegisterQuery(nil); !errors.Is(err, ErrNilQuery) {
		t.Fatalf("nil query: %v", err)
	}
	q := smurfQuery(0)
	if _, err := e.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterQuery(q); !errors.Is(err, ErrDuplicateQuery) {
		t.Fatalf("duplicate not rejected: %v", err)
	}
	if err := e.UnregisterQuery("smurf"); err != nil {
		t.Fatalf("UnregisterQuery: %v", err)
	}
	if err := e.UnregisterQuery("smurf"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("double unregister: %v", err)
	}
	if _, err := e.RegisterQuery(q); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
	if _, err := e.RegisterQuery(smurfQuery(0), WithStrategy(decompose.Strategy("bogus"))); err == nil {
		t.Fatalf("bogus strategy accepted")
	}
}

// TestEngineRefusesUnnamedQuery: a registration is addressed by its query's
// name, so a query without one is refused and leaves nothing behind.
func TestEngineRefusesUnnamedQuery(t *testing.T) {
	e := New(nil)
	q := query.NewBuilder("").
		Vertex("a", "Host").Vertex("b", "Host").
		Edge("a", "b", "flow").
		MustBuild()
	if _, err := e.RegisterQuery(q); !errors.Is(err, ErrUnnamedQuery) {
		t.Fatalf("RegisterQuery(unnamed) = %v, want ErrUnnamedQuery", err)
	}
	if got := e.Registrations(); len(got) != 0 {
		t.Fatalf("Registrations() = %v after a refused registration", got)
	}
}

func TestEngineWithStrategy(t *testing.T) {
	e := New(nil)
	q := smurfQuery(0)
	reg, err := e.RegisterQuery(q, WithStrategy(decompose.StrategyEager))
	if err != nil {
		t.Fatal(err)
	}
	want, err := decompose.NewPlanner(nil).Plan(q, decompose.StrategyEager)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Plan(); got.Strategy != decompose.StrategyEager || got.String() != want.String() {
		t.Fatalf("registered plan %v (%s), want eager %v", got, got.Strategy, want)
	}
	// An unknown strategy is refused.
	if _, err := New(nil).RegisterQuery(smurfQuery(0), WithStrategy("bogus")); !errors.Is(err, decompose.ErrUnknownStrategy) {
		t.Fatalf("unknown strategy: %v", err)
	}
}

func TestEngineDropsBadEdges(t *testing.T) {
	var cfg Config
	cfg.Retention = time.Minute
	e := New(&cfg)
	if _, err := e.RegisterQuery(smurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(3000, 0))
	e.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base))
	// Duplicate ID.
	e.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base.Add(time.Second)))
	// Very late edge, far beyond slack.
	e.ProcessEdge(hostEdge(2, 3, 4, "icmp_echo_req", base.Add(-time.Hour)))
	m := e.Metrics()
	if m.EdgesProcessed != 1 {
		t.Fatalf("EdgesProcessed = %d", m.EdgesProcessed)
	}
	if m.EdgesDropped != 2 {
		t.Fatalf("EdgesDropped = %d", m.EdgesDropped)
	}
}

func TestEngineMetrics(t *testing.T) {
	e := New(nil)
	if _, err := e.RegisterQuery(smurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(4000, 0))
	e.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base))
	e.ProcessEdge(hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)))
	m := e.Metrics()
	if m.EdgesProcessed != 2 || m.MatchesEmitted != 1 {
		t.Fatalf("metrics wrong: %+v", m)
	}
	if len(m.Queries) != 1 || m.Queries[0].Name != "smurf" || m.Queries[0].Matches != 1 {
		t.Fatalf("per-query metrics wrong: %+v", m.Queries)
	}
	if m.LocalSearches == 0 {
		t.Fatalf("local searches not counted")
	}
	// The view is a rendering of the registry: the counts are its series,
	// and an unregistered query takes its own series with it.
	snap := e.ObsRegistry().Snapshot()
	if snap.Counter("edges_processed", "") != 2 || snap.Counter("query_matches_detected", "smurf") != 1 {
		t.Fatalf("registry disagrees with the view: %+v", snap.Counters)
	}
	if err := e.UnregisterQuery("smurf"); err != nil {
		t.Fatal(err)
	}
	for _, c := range e.ObsRegistry().Snapshot().Counters {
		if c.LabelValue == "smurf" {
			t.Fatalf("unregistered query's series %s survived", c.Name)
		}
	}
	if e.Graph().NumEdges() != 2 {
		t.Fatalf("dynamic graph size wrong")
	}
}

// TestMidStreamPlanAnchorsOnRareWedge registers a query after the window
// holds 100 requests, 100 replies and 10 dns edges, of which only three
// replies leave a host a request entered: the request→reply wedge is rarer
// than the dns edge, though independent of each other the two relations
// would form ~24 such wedges. The selective plan must sit on that wedge,
// which only a triad count that sees all three wedges tells it to do; the
// independence formula alone anchors the plan on dns.
func TestMidStreamPlanAnchorsOnRareWedge(t *testing.T) {
	checkRareWedgeAnchor(t, New(nil))
}

// TestEngineIgnoresSummarySettings: EnableSummaries and TriadSampling are
// ignored, so an engine configured with summaries off or with 1-in-10
// sampling plans on the same exact triad counts as the zero Config.
func TestEngineIgnoresSummarySettings(t *testing.T) {
	for _, cfg := range []Config{
		{EnableSummaries: false},
		{EnableSummaries: true, TriadSampling: 10},
	} {
		checkRareWedgeAnchor(t, New(&cfg))
	}
}

// checkRareWedgeAnchor fills e's window with TestMidStreamPlanAnchorsOnRareWedge's
// edges, registers its query and fails unless the bottom leaf is the wedge.
func checkRareWedgeAnchor(t *testing.T, e *Engine) {
	t.Helper()
	base := graph.TimestampFromTime(time.Unix(9500, 0))
	id := graph.EdgeID(0)
	add := func(src, dst graph.VertexID, typ string) {
		id++
		e.ProcessEdge(hostEdge(id, src, dst, typ, base.Add(time.Duration(id)*time.Millisecond)))
	}
	for i := range graph.VertexID(100) {
		add(i, 1000+i, "icmp_echo_req")
	}
	for i := range graph.VertexID(100) {
		if i < 3 {
			add(1000+i, 5000+i, "icmp_echo_reply") // the three wedges
		} else {
			add(2000+i, 3000+i, "icmp_echo_reply")
		}
	}
	for i := range graph.VertexID(10) {
		add(4000+i, 4500+i, "dns")
	}
	q := query.NewBuilder("rare").
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").Vertex("d", "Host").
		Edge("a", "b", "icmp_echo_req").
		Edge("b", "c", "icmp_echo_reply").
		Edge("c", "d", "dns").
		MustBuild()
	reg, err := e.RegisterQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if bottom := reg.Plan().Leaves()[0]; !reflect.DeepEqual(bottom.Edges, []query.EdgeID{0, 1}) {
		t.Fatalf("plan %v anchors on edges %v, want the request→reply wedge [0 1]", reg.Plan(), bottom.Edges)
	}
}

func TestEnginePruningBoundsPartialState(t *testing.T) {
	var cfg Config
	cfg.Retention = 10 * time.Second
	cfg.PruneInterval = 50
	e := New(&cfg)
	// Use the eager strategy so each lone request edge becomes a stored
	// partial match (the selective plan folds this two-edge query into a
	// single primitive and would store nothing for unmatched requests).
	if _, err := e.RegisterQuery(smurfQuery(5*time.Second), WithStrategy(decompose.StrategyEager)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(7000, 0))
	// A long stream of only requests: partial matches accumulate but must be
	// pruned as the window slides.
	for i := 0; i < 500; i++ {
		ts := base.Add(time.Duration(i) * time.Second)
		e.ProcessEdge(hostEdge(graph.EdgeID(i+1), graph.VertexID(i), graph.VertexID(i+10000), "icmp_echo_req", ts))
	}
	m := e.Metrics()
	if m.PartialsPruned == 0 {
		t.Fatalf("no partial matches pruned: %+v", m)
	}
	if m.PartialMatches > 100 {
		t.Fatalf("partial state unbounded: %d live partials", m.PartialMatches)
	}
	if m.ExpiredEdges == 0 {
		t.Fatalf("window never expired edges")
	}
}

func TestEngineMultipleQueriesShareStream(t *testing.T) {
	e := New(nil)
	if _, err := e.RegisterQuery(smurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	scan := query.NewBuilder("fanout").
		Window(time.Minute).
		Vertex("src", "Host").
		Vertex("d1", "Host").
		Vertex("d2", "Host").
		Edge("src", "d1", "icmp_echo_req").
		Edge("src", "d2", "icmp_echo_req").
		MustBuild()
	if _, err := e.RegisterQuery(scan); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(8000, 0))
	var perQuery = map[string]int{}
	edges := []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", base),
		hostEdge(2, 1, 3, "icmp_echo_req", base.Add(time.Second)),
		hostEdge(3, 2, 9, "icmp_echo_reply", base.Add(2*time.Second)),
	}
	for _, se := range edges {
		for _, ev := range e.ProcessEdge(se) {
			perQuery[ev.Query]++
		}
	}
	if perQuery["smurf"] != 1 {
		t.Fatalf("smurf matches = %d, want 1", perQuery["smurf"])
	}
	// Fan-out of two requests from host 1: orderings (d1=2,d2=3) and (d1=3,d2=2).
	if perQuery["fanout"] != 2 {
		t.Fatalf("fanout matches = %d, want 2", perQuery["fanout"])
	}
}

func TestEngineMidStreamRegistrationRetentionTooSmall(t *testing.T) {
	var cfg Config
	cfg.Retention = 10 * time.Second
	e := New(&cfg)
	base := graph.TimestampFromTime(time.Unix(9000, 0))
	e.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base))
	// A query whose window exceeds the in-force retention, registered after
	// edges were ingested, must be rejected: edges it would need may already
	// have expired, so accepting it could silently miss matches.
	if _, err := e.RegisterQuery(smurfQuery(time.Minute)); !errors.Is(err, ErrRetentionTooSmall) {
		t.Fatalf("mid-stream wide registration: got %v, want ErrRetentionTooSmall", err)
	}
	// The failed registration must leave no trace.
	if got := e.Registrations(); len(got) != 0 {
		t.Fatalf("failed registration left state: %v", got)
	}
	if e.Metrics().Registrations != 0 {
		t.Fatalf("failed registration counted: %+v", e.Metrics())
	}
	// Queries fitting the current retention still register fine mid-stream.
	if _, err := e.RegisterQuery(smurfQuery(5 * time.Second)); err != nil {
		t.Fatalf("narrow mid-stream registration rejected: %v", err)
	}
	// Before any edge, wide registrations widen retention instead.
	e2 := New(&cfg)
	if _, err := e2.RegisterQuery(smurfQuery(time.Minute)); err != nil {
		t.Fatalf("pre-stream wide registration rejected: %v", err)
	}
	if got := e2.Graph().Window(); got != time.Minute {
		t.Fatalf("retention not widened pre-stream: %s", got)
	}
}

func TestEngineUnregisterQueryMidStream(t *testing.T) {
	e := New(nil)
	if _, err := e.RegisterQuery(smurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	fanout := query.NewBuilder("fanout").
		Window(time.Minute).
		Vertex("src", "Host").
		Vertex("d1", "Host").
		Vertex("d2", "Host").
		Edge("src", "d1", "icmp_echo_req").
		Edge("src", "d2", "icmp_echo_req").
		MustBuild()
	if _, err := e.RegisterQuery(fanout); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(9500, 0))
	// Seed both queries with a half-complete pattern: one echo request.
	e.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base))
	if err := e.UnregisterQuery("smurf"); err != nil {
		t.Fatalf("UnregisterQuery mid-stream: %v", err)
	}
	// The reply would have completed the smurf match; no event may be
	// emitted for the unregistered query, while fanout keeps matching.
	events := e.ProcessEdge(hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)))
	events = append(events, e.ProcessEdge(hostEdge(3, 1, 4, "icmp_echo_req", base.Add(2*time.Second)))...)
	for _, ev := range events {
		if ev.Query == "smurf" {
			t.Fatalf("unregistered query still emitting: %v", ev)
		}
	}
	m := e.Metrics()
	if len(m.Queries) != 1 || m.Queries[0].Name != "fanout" {
		t.Fatalf("metrics still reporting unregistered query: %+v", m.Queries)
	}
	if m.Queries[0].Matches != 2 {
		t.Fatalf("surviving registration disturbed: %+v", m.Queries[0])
	}
	// The unregistered query's partial state is gone: the DAG stores what
	// an engine that only ever ran the surviving registration stores.
	alone := New(nil)
	if _, err := alone.RegisterQuery(fanout); err != nil {
		t.Fatal(err)
	}
	alone.ProcessEdge(hostEdge(1, 1, 2, "icmp_echo_req", base))
	alone.ProcessEdge(hostEdge(2, 2, 3, "icmp_echo_reply", base.Add(time.Second)))
	alone.ProcessEdge(hostEdge(3, 1, 4, "icmp_echo_req", base.Add(2*time.Second)))
	if want := alone.Metrics(); m.PartialMatches != want.PartialMatches || m.MQO.Nodes != want.MQO.Nodes {
		t.Fatalf("dropped registration's state still held: %d stored in %d nodes, the survivor alone %d in %d",
			m.PartialMatches, m.MQO.Nodes, want.PartialMatches, want.MQO.Nodes)
	}
	// Pruning sweeps must not trip over the removed registration.
	for i := 0; i < 2100; i++ {
		ts := base.Add(time.Duration(i+3) * time.Second)
		e.ProcessEdge(hostEdge(graph.EdgeID(i+10), graph.VertexID(i+100), graph.VertexID(i+5000), "icmp_echo_req", ts))
	}
}

// TestLateRegistrationBackfillsFromWindow: a query registered mid-stream is
// answered from the retained window as if it had been registered before it.
// It is sent exactly the matches, by the naive-expansion oracle, whose last
// edge arrives after registration — including those whose first primitive,
// or all but their last edge, arrived before — and none completed before.
// That holds for a plan node the DAG already has, too: the request leaf of a
// query registered up front with a one-second window has pruned the requests
// the late one-minute smurf needs.
func TestLateRegistrationBackfillsFromWindow(t *testing.T) {
	base := graph.TimestampFromTime(time.Unix(9800, 0))
	at := func(s int) graph.Timestamp { return base.Add(time.Duration(s) * time.Second) }
	edges := []graph.StreamEdge{
		hostEdge(1, 1, 2, "icmp_echo_req", at(1)),
		hostEdge(2, 2, 3, "icmp_echo_reply", at(2)), // completes smurf before registration
		hostEdge(3, 4, 5, "icmp_echo_req", at(3)),   // a whole leaf primitive, before
		hostEdge(4, 7, 8, "scan", at(4)),
		hostEdge(5, 7, 9, "infect", at(5)), // burst's first primitive, before
		// Registration happens here.
		hostEdge(6, 5, 6, "icmp_echo_reply", at(6)),  // completes with edge 3
		hostEdge(7, 2, 10, "icmp_echo_reply", at(7)), // completes with edge 1
		hostEdge(8, 7, 9, "flow", at(8)),             // completes burst with edges 4 and 5
		hostEdge(9, 11, 12, "icmp_echo_req", at(9)),
		hostEdge(10, 12, 13, "icmp_echo_reply", at(10)), // wholly after
	}
	const split = 5
	late := []*query.Graph{smurfQuery(time.Minute), burstQuery(time.Minute)}
	var want []naiveMatch
	for _, nm := range naiveMatches(0, late, edges) {
		if nm.at >= split {
			want = append(want, nm)
		}
	}
	if len(want) != 4 {
		t.Fatalf("fixture: the oracle finds %d matches completing after registration, want 4", len(want))
	}

	var cfg Config
	cfg.Retention = time.Minute
	cfg.PruneInterval = 1
	e := New(&cfg)
	early := query.NewBuilder("smurf-1s").Window(time.Second).
		Vertex("attacker", "Host").Vertex("amplifier", "Host").Vertex("victim", "Host").
		Edge("attacker", "amplifier", "icmp_echo_req").Edge("amplifier", "victim", "icmp_echo_reply").
		MustBuild()
	if _, err := e.RegisterQuery(early, WithStrategy(decompose.StrategyEager)); err != nil {
		t.Fatal(err)
	}
	for _, se := range edges[:split] {
		e.ProcessEdge(se)
	}
	// Eager smurf has two leaves, the request one shared with smurf-1s;
	// burst's selective plan has two as well. Each late query has a
	// primitive that predates it.
	if _, err := e.RegisterQuery(late[0], WithStrategy(decompose.StrategyEager)); err != nil {
		t.Fatal(err)
	}
	reg, err := e.RegisterQuery(late[1])
	if err != nil {
		t.Fatal(err)
	}
	if reg.Plan().NumNodes() < 3 {
		t.Fatalf("burst planned as a single primitive; the fixture needs two leaves")
	}
	got := map[string]int{}
	for _, se := range edges[split:] {
		for _, ev := range e.ProcessEdge(se) {
			if ev.Query != early.Name() {
				got[ev.Query+"\x1f"+ev.CanonicalSignature()]++
			}
		}
	}
	for _, nm := range want {
		if got[nm.key()] != 1 {
			t.Errorf("%s completed by edge %d sent %d times, want once", nm.query, nm.at+1, got[nm.key()])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("late registrations were sent %d distinct matches, the oracle finds %d after registration", len(got), len(want))
	}
}

// TestEngineMatchesOfflineGroundTruth streams a random multi-relational
// graph through the engine (all strategies) and compares the reported
// matches with an offline exhaustive search over the final graph, with the
// query window disabled so the two result sets must coincide exactly.
func TestEngineMatchesOfflineGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	types := []string{"flow", "dns", "login"}
	const nVertices = 40
	const nEdges = 300
	edges := make([]graph.StreamEdge, 0, nEdges)
	for i := 0; i < nEdges; i++ {
		src := graph.VertexID(rng.Intn(nVertices))
		dst := graph.VertexID(rng.Intn(nVertices))
		for dst == src {
			dst = graph.VertexID(rng.Intn(nVertices))
		}
		edges = append(edges, hostEdge(graph.EdgeID(i+1), src, dst, types[rng.Intn(len(types))], graph.Timestamp(i)))
	}
	q := query.NewBuilder("wedge").
		Vertex("a", "Host").
		Vertex("b", "Host").
		Vertex("c", "Host").
		Edge("a", "b", "flow").
		Edge("b", "c", "dns").
		MustBuild()

	// Offline ground truth.
	dyn := graph.NewDynamic(0)
	for _, se := range edges {
		if _, err := dyn.Apply(se); err != nil {
			t.Fatal(err)
		}
	}
	offline := isomorphism.New(q).FindAll(dyn.Graph(), q.EdgeIDs(), 0)
	truth := make(map[string]bool, len(offline))
	for _, m := range offline {
		truth[m.Signature()] = true
	}
	if len(truth) == 0 {
		t.Fatalf("degenerate fixture: no offline matches")
	}

	for _, strategy := range decompose.Strategies() {
		t.Run(string(strategy), func(t *testing.T) {
			e := New(nil)
			if _, err := e.RegisterQuery(q, WithStrategy(strategy)); err != nil {
				t.Fatal(err)
			}
			found := make(map[string]bool)
			for _, se := range edges {
				for _, ev := range e.ProcessEdge(se) {
					found[ev.Match.Signature()] = true
				}
			}
			if len(found) != len(truth) {
				t.Fatalf("strategy %s: incremental %d vs offline %d matches", strategy, len(found), len(truth))
			}
			for sig := range truth {
				if !found[sig] {
					t.Fatalf("strategy %s: missing match %s", strategy, sig)
				}
			}
		})
	}
}

// TestEventScratchHoldsNoStaleEvents: after an edge that completes a burst
// of matches, an edge that completes none leaves no event anywhere in the
// scratch's capacity — a stale event would keep its match, and the slab
// chunks it was carved from, alive for as long as the engine.
func TestEventScratchHoldsNoStaleEvents(t *testing.T) {
	e := New(nil)
	if _, err := e.RegisterQuery(smurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(3000, 0))
	const burst = 20
	for i := 0; i < burst; i++ {
		e.ProcessEdge(hostEdge(graph.EdgeID(i+1), graph.VertexID(100+i), 2, "icmp_echo_req", base))
	}
	if got := len(e.ProcessEdge(hostEdge(burst+1, 2, 3, "icmp_echo_reply", base.Add(time.Second)))); got != burst {
		t.Fatalf("the reply completed %d matches, want %d", got, burst)
	}
	if got := len(e.ProcessEdge(hostEdge(burst+2, 5, 6, "dns", base.Add(2*time.Second)))); got != 0 {
		t.Fatalf("an unrelated edge completed %d matches", got)
	}
	for i, ev := range e.evScratch[:cap(e.evScratch)] {
		if !reflect.ValueOf(ev).IsZero() {
			t.Fatalf("scratch slot %d of %d still holds %v", i, cap(e.evScratch), ev)
		}
	}
}
