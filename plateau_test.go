package streamworks_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
)

// A match-dense stream for the bounded-state tests: match i is a request
// edge at i·chainGap and its reply half a gap later, over three hosts of its
// own, so every chainRetention of stream time holds chainPerRetention
// matches of a request/reply query and nothing else, and every vertex the
// stream has ever named is one more that anything keeping per-vertex state
// for ever would remember.
const (
	chainGap          = 4 * time.Millisecond
	chainPerRetention = 1500
	chainRetention    = chainPerRetention * chainGap
)

func chainQuery(t *testing.T, name string, window time.Duration) *streamworks.Query {
	t.Helper()
	q, err := streamworks.ParseQuery(fmt.Sprintf(
		"query %s\nwindow %s\nvertex a : Host\nvertex b : Host\nvertex c : Host\nedge a -[req]-> b\nedge b -[reply]-> c\n",
		name, window))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// chainEdges appends the two edges of matches [from, to) to buf.
func chainEdges(buf []streamworks.StreamEdge, from, to int) []streamworks.StreamEdge {
	start := streamworks.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))
	for i := from; i < to; i++ {
		at := start.Add(time.Duration(i) * chainGap)
		host := streamworks.VertexID(3 * i)
		a, b, c := host+1, host+2, host+3
		buf = append(buf,
			streamworks.StreamEdge{
				Edge:       streamworks.Edge{ID: streamworks.EdgeID(2*i + 1), Source: a, Target: b, Type: "req", Timestamp: at},
				SourceType: "Host", TargetType: "Host",
			},
			streamworks.StreamEdge{
				Edge:       streamworks.Edge{ID: streamworks.EdgeID(2*i + 2), Source: b, Target: c, Type: "reply", Timestamp: at.Add(chainGap / 2)},
				SourceType: "Host", TargetType: "Host",
			})
	}
	return buf
}

// emittedState is what an engine remembers of the matches it has emitted.
type emittedState struct {
	entries int // emitted-set entries over all queries and shards
	evicted uint64
	matches uint64
	heap    uint64
}

func measureEmitted(t *testing.T, eng streamworks.Engine) emittedState {
	t.Helper()
	if s, ok := eng.(*streamworks.Sharded); ok {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	m, err := eng.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := emittedState{evicted: m.EmittedEvicted, matches: m.MatchesEmitted}
	for _, q := range m.Queries {
		st.entries += q.EmittedEntries
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.heap = ms.HeapAlloc
	return st
}

// TestEmittedStatePlateaus streams 22 retentions of a match-dense stream
// through a 25-member consumer group of the DAG and a 2-shard engine (where
// a match's edges can reach both shards, and each remembers what it found):
// what each remembers of its emissions after 22 retentions must be what it
// remembered after 4 — entries and heap alike, the heap covering the window
// statistics, and the slabs delivery carves matches and reports from (a sink
// discarding every match is subscribed), too — not five times that, while
// everything still inside the window is kept. The group of 25 remembers a
// match once, not once per member: it holds what one query alone would. With
// unbounded retention nothing expires and nothing may be forgotten.
func TestEmittedStatePlateaus(t *testing.T) {
	const (
		early = 4 * chainPerRetention
		total = 22 * chainPerRetention
		batch = 64 // matches
	)
	group := func(t *testing.T) []*streamworks.Query {
		qs := make([]*streamworks.Query, 25)
		for i := range qs {
			// Same shape, different names and windows: one consumer group.
			qs[i] = chainQuery(t, fmt.Sprintf("chain-%02d", i), chainRetention-time.Duration(i)*time.Millisecond)
		}
		return qs
	}
	one := func(t *testing.T) []*streamworks.Query {
		return []*streamworks.Query{chainQuery(t, "chain", chainRetention)}
	}
	for _, tc := range []struct {
		name    string
		open    func() streamworks.Engine
		queries func(*testing.T) []*streamworks.Query
		sets    int // exactly-once sets holding each match
		bounded bool
	}{
		{"consumer group of 25", func() streamworks.Engine {
			return streamworks.New(streamworks.WithRetention(chainRetention))
		}, group, 1, true},
		{"2 shards", func() streamworks.Engine {
			return streamworks.NewSharded(streamworks.WithRetention(chainRetention), streamworks.WithShards(2))
		}, one, 2, true},
		{"unbounded retention", func() streamworks.Engine { return streamworks.New() }, one, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.open()
			defer eng.Close()
			ctx := context.Background()
			queries := tc.queries(t)
			for _, q := range queries {
				if err := eng.RegisterQuery(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
			sub, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {}))
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			var after4 emittedState
			var buf []streamworks.StreamEdge
			for i := 0; i < total; i += batch {
				buf = chainEdges(buf[:0], i, min(i+batch, total))
				if err := eng.ProcessBatch(ctx, buf); err != nil {
					t.Fatal(err)
				}
				if i < early && i+batch >= early {
					after4 = measureEmitted(t, eng)
				}
			}
			end := measureEmitted(t, eng)
			if want := uint64(total * len(queries)); end.matches != want {
				t.Fatalf("%d matches emitted, want %d", end.matches, want)
			}
			if !tc.bounded {
				if end.evicted != 0 || end.entries != total {
					t.Fatalf("unbounded retention: %d entries for %d matches, %d evicted", end.entries, total, end.evicted)
				}
				return
			}
			t.Logf("after 4 retentions: %d entries, heap %d KiB; after 22: %d entries, heap %d KiB, %d evicted",
				after4.entries, after4.heap>>10, end.entries, end.heap>>10, end.evicted)
			if end.entries > 2*after4.entries || end.evicted == 0 {
				t.Errorf("emitted state grows with the stream: %d entries after 4 retentions, %d after 22 (%d evicted)",
					after4.entries, end.entries, end.evicted)
			}
			if end.heap > 2*after4.heap {
				t.Errorf("heap grows with the stream: %d bytes after 4 retentions, %d after 22", after4.heap, end.heap)
			}
			// Every query's window is at least nine tenths of the retention:
			// the matches still inside it must all be remembered — once per
			// set that sees them, however many queries read a set.
			if live := chainPerRetention * 9 / 10; end.entries < live {
				t.Errorf("%d entries left, but %d matches are still inside their window", end.entries, live)
			}
			if most := 2 * chainPerRetention * tc.sets; end.entries > most {
				t.Errorf("%d entries for %d queries behind %d sets: more than two retentions' worth each", end.entries, len(queries), tc.sets)
			}
		})
	}
}
