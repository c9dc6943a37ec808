package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/sjtree"
)

// TestExactlyOnceAcrossEviction: an engine whose emitted sets forget expired
// matches delivers exactly what one that remembers everything delivers, each
// match once — across the operations that derive matches a second time from
// retained state, forced every few retentions of a sixty-retention stream:
// plan swaps (DAG.Swap backfilling the new plan's nodes from the window) and
// a mid-stream registration (its root is an existing node, backfilled with
// the matches already there).
func TestExactlyOnceAcrossEviction(t *testing.T) {
	const retention = 10 * time.Second // 50 edges of randomHostStream
	edges := randomHostStream(99, 3000)
	type outcome struct {
		delivered map[string]int // query + signature -> deliveries
		evicted   uint64
	}
	run := func(t *testing.T, keep bool) outcome {
		sjtree.KeepEmittedForTest(keep)
		defer sjtree.KeepEmittedForTest(false)
		cfg := DefaultConfig()
		cfg.Retention = retention
		cfg.PruneInterval = 16
		e := New(&cfg)
		for _, q := range []*query.Graph{smurfQuery(retention), probeQuery(0), exfilQuery(retention)} {
			if _, err := e.RegisterQuery(q, WithStrategy(decompose.StrategySelective)); err != nil {
				t.Fatal(err)
			}
		}
		out := outcome{delivered: map[string]int{}}
		e.Subscribe("", MatchSinkFunc(func(ev MatchEvent) {
			out.delivered[ev.Query+"\x1f"+ev.CanonicalSignature()]++
		}))
		strategies := []decompose.Strategy{decompose.StrategyEager, decompose.StrategyLazy, decompose.StrategyBalanced, decompose.StrategySelective}
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
			case n >= 150 && n%170 == 0:
				for _, name := range []string{"smurf", "probe", "exfil"} {
					if err := e.ReplanNow(name, strategies[n/170%len(strategies)]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		m := e.Metrics()
		if m.Replans < 30 {
			t.Fatalf("only %d plan swaps", m.Replans)
		}
		out.evicted = m.EmittedEvicted
		return out
	}
	want, got := run(t, true), run(t, false)
	if want.evicted != 0 || got.evicted == 0 {
		t.Fatalf("%d entries evicted with eviction off, %d with it on", want.evicted, got.evicted)
	}
	for key, n := range got.delivered {
		if n != 1 {
			t.Errorf("%q delivered %d times", key, n)
		}
		if want.delivered[key] == 0 {
			t.Errorf("%q delivered only when emitted sets evict", key)
		}
	}
	if len(got.delivered) != len(want.delivered) || len(got.delivered) < 100 {
		t.Fatalf("%d distinct matches delivered, %d when emitted sets keep everything", len(got.delivered), len(want.delivered))
	}
}

// TestEmittedGaugesFollowTheSets: the per-query emitted-set gauges and the
// eviction counter in the registry, kept with observability off, say what
// Metrics says, and summed over the queries they say what is resident. Three
// queries of one shape read their root through one consumer group with one
// set: its first member in attach order carries it, the others report
// nothing, and the sum is what the set of a query registered alone holds.
func TestEmittedGaugesFollowTheSets(t *testing.T) {
	run := func(t *testing.T, windows ...time.Duration) (entries, bytes int) {
		cfg := DefaultConfig()
		cfg.Retention = 10 * time.Second
		cfg.PruneInterval = 16
		e := New(&cfg)
		for i, w := range windows {
			q := query.NewBuilder(fmt.Sprintf("smurf-%d", i)).Window(w).
				Vertex("attacker", "Host").Vertex("amplifier", "Host").Vertex("victim", "Host").
				Edge("attacker", "amplifier", "icmp_echo_req").Edge("amplifier", "victim", "icmp_echo_reply").
				MustBuild()
			if _, err := e.RegisterQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, se := range randomHostStream(7, 1600) {
			e.ProcessEdge(se)
		}
		e.Advance(e.Graph().Watermark() + graph.Timestamp(time.Second)) // one more sweep, so the gauges are current
		m, snap := e.Metrics(), e.ObsRegistry().Snapshot()
		evicted := snap.Counter("emitted_evicted", "")
		if m.Queries[0].EmittedEntries == 0 || m.EmittedEvicted == 0 || evicted != m.EmittedEvicted {
			t.Fatalf("%d entries, %d evicted, the registry says %d", m.Queries[0].EmittedEntries, m.EmittedEvicted, evicted)
		}
		for i, q := range m.Queries {
			gaugeEntries, gaugeBytes := snap.Gauge("emitted_entries", q.Name), snap.Gauge("emitted_bytes", q.Name)
			if int(gaugeEntries) != q.EmittedEntries || int(gaugeBytes) != q.EmittedBytes {
				t.Fatalf("%s: registry says %d entries, %d bytes; Metrics says %d, %d",
					q.Name, gaugeEntries, gaugeBytes, q.EmittedEntries, q.EmittedBytes)
			}
			if i > 0 && (q.EmittedEntries != 0 || q.EmittedBytes != 0) {
				t.Fatalf("%s reports %d entries, %d bytes of a set the group's first member carries", q.Name, q.EmittedEntries, q.EmittedBytes)
			}
			entries, bytes = entries+q.EmittedEntries, bytes+q.EmittedBytes
		}
		return entries, bytes
	}
	aloneEntries, aloneBytes := run(t, 10*time.Second)
	groupEntries, groupBytes := run(t, 10*time.Second, 5*time.Second, 2*time.Second)
	if groupEntries != aloneEntries || groupBytes != aloneBytes {
		t.Fatalf("a group of three holds %d entries in %d bytes, a query alone %d in %d", groupEntries, groupBytes, aloneEntries, aloneBytes)
	}
}
