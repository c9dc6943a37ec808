package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/query"
)

// TestExactlyOnceAcrossEviction: an engine that re-registers every query
// under another strategy every few retentions of a sixty-retention stream,
// long after the first matches have left the window, delivers what the same
// run without re-registrations delivers, each match once — though a
// re-registration derives matches a second time from retained state (the
// new plan's nodes backfilled from the window), as does the mid-stream
// registration both runs make (its root is an existing node, full of
// matches already delivered). The window-less query's window is the
// retention, so a plan makes no difference to it either.
func TestExactlyOnceAcrossEviction(t *testing.T) {
	const retention = 10 * time.Second // 50 edges of randomHostStream
	edges := randomHostStream(99, 3000)
	// query + signature -> deliveries
	run := func(t *testing.T, move bool) map[string]int {
		var cfg Config
		cfg.Retention = retention
		cfg.PruneInterval = 16
		e := New(&cfg)
		for _, q := range []*query.Graph{smurfQuery(retention), probeQuery(0), exfilQuery(retention)} {
			if _, err := e.RegisterQuery(q, WithStrategy(decompose.StrategySelective)); err != nil {
				t.Fatal(err)
			}
		}
		delivered := map[string]int{}
		e.Subscribe("", MatchSinkFunc(func(ev MatchEvent) {
			delivered[ev.Query+"\x1f"+ev.CanonicalSignature()]++
		}))
		strategies := []decompose.Strategy{decompose.StrategyEager, decompose.StrategyLazy, decompose.StrategyBalanced, decompose.StrategySelective}
		moves := 0
		for i, se := range edges {
			e.ProcessEdge(se)
			switch n := i + 1; {
			case n == 400:
				// Same shape as probe: its root node exists and is full.
				late := query.NewBuilder("probe-late").
					Vertex("scanner", "Host").Vertex("target", "Host").Vertex("resolver", "Host").
					Edge("scanner", "target", "icmp_echo_req").Edge("target", "resolver", "dns").
					MustBuild()
				if _, err := e.RegisterQuery(late, WithStrategy(decompose.StrategySelective)); err != nil {
					t.Fatal(err)
				}
			case move && n >= 150 && n%170 == 0:
				for _, name := range []string{"smurf", "probe", "exfil"} {
					reregister(t, e, name, strategies[n/170%len(strategies)])
					moves++
				}
			}
		}
		if move && moves < 30 {
			t.Fatalf("only %d re-registrations", moves)
		}
		return delivered
	}
	runs := map[string]map[string]int{"without re-registrations": run(t, false), "with re-registrations": run(t, true)}
	for name, delivered := range runs {
		for key, n := range delivered {
			if n != 1 {
				t.Errorf("%q delivered %d times %s", key, n, name)
			}
			for other, od := range runs {
				if od[key] == 0 {
					t.Errorf("%q delivered %s but not %s", key, name, other)
				}
			}
		}
		if len(delivered) < 100 {
			t.Fatalf("vacuous: %d distinct matches delivered %s", len(delivered), name)
		}
	}
}

// TestGroupMembersReceiveWhatTheyWouldAlone: three queries of one shape and
// three windows read one root through one consumer group, with nothing
// remembering what the group delivered. Each is sent exactly what it is sent
// registered alone, each match once, across prune sweeps under a retention
// the widest window fills.
func TestGroupMembersReceiveWhatTheyWouldAlone(t *testing.T) {
	windows := []time.Duration{10 * time.Second, 5 * time.Second, 2 * time.Second}
	// query + signature -> deliveries
	run := func(t *testing.T, windows ...time.Duration) map[string]int {
		var cfg Config
		cfg.Retention = 10 * time.Second
		cfg.PruneInterval = 16
		e := New(&cfg)
		for _, w := range windows {
			q := query.NewBuilder(fmt.Sprintf("smurf-%v", w)).Window(w).
				Vertex("attacker", "Host").Vertex("amplifier", "Host").Vertex("victim", "Host").
				Edge("attacker", "amplifier", "icmp_echo_req").Edge("amplifier", "victim", "icmp_echo_reply").
				MustBuild()
			if _, err := e.RegisterQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		delivered := map[string]int{}
		e.Subscribe("", MatchSinkFunc(func(ev MatchEvent) {
			delivered[ev.Query+"\x1f"+ev.CanonicalSignature()]++
		}))
		for _, se := range randomHostStream(7, 1600) {
			e.ProcessEdge(se)
		}
		if m := e.Metrics(); m.MQO.Nodes != m.Queries[0].PlanNodes {
			t.Fatalf("%d DAG nodes for %d queries of a %d-node plan", m.MQO.Nodes, len(windows), m.Queries[0].PlanNodes)
		}
		return delivered
	}
	group := run(t, windows...)
	for key, n := range group {
		if n != 1 {
			t.Errorf("%q delivered %d times", key, n)
		}
	}
	sizes := map[time.Duration]int{}
	for _, w := range windows {
		alone := run(t, w)
		for key := range alone {
			if group[key] == 0 {
				t.Errorf("%q delivered alone but not in the group", key)
			}
		}
		sizes[w] = len(alone)
	}
	if len(group) != sizes[windows[0]]+sizes[windows[1]]+sizes[windows[2]] {
		t.Fatalf("the group was sent %d matches, its members alone %v", len(group), sizes)
	}
	if sizes[windows[2]] == 0 || sizes[windows[2]] >= sizes[windows[0]] {
		t.Fatalf("vacuous: windows %v admit %v matches", windows, sizes)
	}
}
