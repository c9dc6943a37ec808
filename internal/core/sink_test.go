package core

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// sinkQueries are three overlapping host patterns that complete often on
// randomHostStream.
func sinkQueries() []*query.Graph {
	return []*query.Graph{smurfQuery(time.Minute), probeQuery(time.Minute), exfilQuery(time.Minute)}
}

// eventKey names a delivered match by its query and canonical signature.
func eventKey(ev MatchEvent) string { return ev.Query + "\x1f" + ev.CanonicalSignature() }

// registered is an engine with qs registered.
func registered(t *testing.T, qs []*query.Graph) *Engine {
	t.Helper()
	e := New(nil)
	for _, q := range qs {
		if _, err := e.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestSinkTakesEveryMatchAndNothingIsBuffered: one edge completes a match
// for each of 1,200 queries over one shared leaf. With a sink set, all of
// them reach the sink, ProcessEdge returns nil, and the engine keeps no
// event buffer after the edge.
func TestSinkTakesEveryMatchAndNothingIsBuffered(t *testing.T) {
	const queries = 1200
	e := New(nil)
	for i := range queries {
		q := query.NewBuilder(fmt.Sprintf("flow-%04d", i)).
			Vertex("src", "Host").Vertex("dst", "Host").
			Edge("src", "dst", "flow").
			MustBuild()
		if _, err := e.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]int{}
	e.Subscribe("", MatchSinkFunc(func(ev MatchEvent) { seen[ev.Query]++ }))
	base := graph.TimestampFromTime(time.Unix(7000, 0))
	if got := e.ProcessEdge(hostEdge(1, 1, 2, "flow", base)); got != nil {
		t.Fatalf("ProcessEdge returned %d events with a sink set, want nil", len(got))
	}
	if len(seen) != queries {
		t.Fatalf("the sink saw matches of %d queries, want %d", len(seen), queries)
	}
	for q, n := range seen {
		if n != 1 {
			t.Fatalf("%s reached the sink %d times", q, n)
		}
	}
	if cap(e.evScratch) != 0 {
		t.Fatalf("the engine buffers %d events beside its sink", cap(e.evScratch))
	}
	if m := e.Metrics(); m.MatchesEmitted != queries {
		t.Fatalf("matches_detected = %d, want %d", m.MatchesEmitted, queries)
	}
}

// TestReturnedEventsEqualTheSinks: on one seeded stream, the events
// ProcessEdge returns with no sink set are the events a sink receives, as a
// multiset of (query, signature).
func TestReturnedEventsEqualTheSinks(t *testing.T) {
	edges := randomHostStream(61, 1500)
	returned := map[string]int{}
	bare := registered(t, sinkQueries())
	for _, se := range edges {
		for _, ev := range bare.ProcessEdge(se) {
			returned[eventKey(ev)]++
		}
	}
	sunk := map[string]int{}
	withSink := registered(t, sinkQueries())
	withSink.Subscribe("", MatchSinkFunc(func(ev MatchEvent) { sunk[eventKey(ev)]++ }))
	for _, se := range edges {
		if got := withSink.ProcessEdge(se); got != nil {
			t.Fatalf("edge %d: ProcessEdge returned %d events with a sink set", se.Edge.ID, len(got))
		}
	}
	if len(returned) < 50 {
		t.Fatalf("vacuous: the stream completes %d distinct matches", len(returned))
	}
	if !maps.Equal(returned, sunk) {
		t.Fatalf("ProcessEdge returned %d distinct matches, the sink received %d, and they differ", len(returned), len(sunk))
	}
	if a, b := bare.Metrics().MatchesEmitted, withSink.Metrics().MatchesEmitted; a != b {
		t.Fatalf("matches_detected %d without a sink, %d with one", a, b)
	}
}

// TestFilteredSinkCountsTheOthers: a sink filtered to one query receives that
// query's matches only; the others' are counted, on matches_detected and on
// their own series, but neither returned nor delivered.
func TestFilteredSinkCountsTheOthers(t *testing.T) {
	edges := randomHostStream(67, 1500)
	perQuery := map[string]uint64{}
	var total uint64
	bare := registered(t, sinkQueries())
	for _, se := range edges {
		for _, ev := range bare.ProcessEdge(se) {
			perQuery[ev.Query]++
			total++
		}
	}
	e := registered(t, sinkQueries())
	var delivered uint64
	e.Subscribe("smurf", MatchSinkFunc(func(ev MatchEvent) {
		if ev.Query != "smurf" {
			t.Fatalf("a sink filtered to smurf received a match of %s", ev.Query)
		}
		delivered++
	}))
	for _, se := range edges {
		if got := e.ProcessEdge(se); got != nil {
			t.Fatalf("edge %d: ProcessEdge returned %d events with a sink set", se.Edge.ID, len(got))
		}
	}
	if perQuery["smurf"] == 0 || perQuery["smurf"] == total {
		t.Fatalf("vacuous: smurf completes %d of %d matches", perQuery["smurf"], total)
	}
	if delivered != perQuery["smurf"] {
		t.Fatalf("the sink received %d smurf matches, want %d", delivered, perQuery["smurf"])
	}
	if got := e.Metrics().MatchesEmitted; got != total {
		t.Fatalf("matches_detected = %d, want %d (every query's)", got, total)
	}
	for q, n := range perQuery {
		if got := queryMatches(e, q); got != n {
			t.Fatalf("%s counted %d matches, want %d", q, got, n)
		}
	}
}
