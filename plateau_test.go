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

// resident is what an engine has emitted and what it holds on to.
type resident struct {
	matches uint64
	heap    uint64
}

func measureResident(t *testing.T, eng streamworks.Engine) resident {
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
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return resident{matches: m.MatchesEmitted, heap: ms.HeapAlloc}
}

// TestEmittedStatePlateaus streams 22 retentions of a match-dense stream
// through a 25-member consumer group of the DAG and a 2-shard engine: every
// query is sent every match, and what the engine holds after 22 retentions
// must be what it held after 4 — the heap covering the window, its
// statistics and the slabs delivery carves matches and reports from (a sink
// discarding every match is subscribed) — not five times that. Under
// unbounded retention every match is sent too.
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
		bounded bool
	}{
		{"consumer group of 25", func() streamworks.Engine {
			return streamworks.New(streamworks.WithRetention(chainRetention))
		}, group, true},
		{"2 shards", func() streamworks.Engine {
			return streamworks.NewSharded(streamworks.WithRetention(chainRetention), streamworks.WithShards(2))
		}, one, true},
		{"unbounded retention", func() streamworks.Engine { return streamworks.New() }, one, false},
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
			var after4 resident
			var buf []streamworks.StreamEdge
			for i := 0; i < total; i += batch {
				buf = chainEdges(buf[:0], i, min(i+batch, total))
				if err := eng.ProcessBatch(ctx, buf); err != nil {
					t.Fatal(err)
				}
				if i < early && i+batch >= early {
					after4 = measureResident(t, eng)
				}
			}
			end := measureResident(t, eng)
			if want := uint64(total * len(queries)); end.matches != want {
				t.Fatalf("%d matches emitted, want %d", end.matches, want)
			}
			if !tc.bounded {
				return
			}
			t.Logf("heap after 4 retentions %d KiB, after 22 %d KiB", after4.heap>>10, end.heap>>10)
			if end.heap > 2*after4.heap {
				t.Errorf("heap grows with the stream: %d bytes after 4 retentions, %d after 22", after4.heap, end.heap)
			}
		})
	}
}
