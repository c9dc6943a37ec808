package shard_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
)

func flowEdge(id int, src, dst graph.VertexID, ts graph.Timestamp) graph.StreamEdge {
	return graph.StreamEdge{
		Edge:       graph.Edge{ID: graph.EdgeID(id), Source: src, Target: dst, Type: gen.EdgeFlow, Timestamp: ts},
		SourceType: gen.TypeHost, TargetType: gen.TypeHost,
	}
}

// TestCloseIdempotentAndLateProcess is the regression test for engine
// shutdown misuse: Close twice (and concurrently with nothing running) must
// be a no-op, and Process/RegisterQuery after Close must fail with the
// ErrClosed sentinel instead of risking a send on a stopped mailbox.
func TestCloseIdempotentAndLateProcess(t *testing.T) {
	cfg := shard.Config{Shards: 2}
	s := shard.New(&cfg)
	if err := s.RegisterQuery(gen.SmurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(5000, 0))
	for i := 0; i < 16; i++ {
		if err := s.Process(flowEdge(i+1, graph.VertexID(i), graph.VertexID(i+100), base.Add(time.Duration(i)*time.Millisecond))); err != nil {
			t.Fatalf("Process(%d): %v", i, err)
		}
	}

	s.Close()
	s.Close() // double-Close: must return immediately, no panic, no hang

	if err := s.Process(flowEdge(99, 1, 2, base.Add(time.Second))); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("Process after Close: %v, want ErrClosed", err)
	}
	if err := s.ProcessContext(context.Background(), flowEdge(100, 1, 2, base.Add(time.Second))); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("ProcessContext after Close: %v, want ErrClosed", err)
	}
	if err := s.RegisterQuery(gen.WormQuery(time.Minute)); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("RegisterQuery after Close: %v, want ErrClosed", err)
	}
	if err := s.UnregisterQuery("smurf-ddos"); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("UnregisterQuery after Close: %v, want ErrClosed", err)
	}
	// Metrics remain readable on a closed engine.
	if m := s.Metrics(); m.EdgesProcessed == 0 {
		t.Fatal("metrics lost after Close")
	}
}

// TestCloseReturnsAfterTheFinalDelivery: right after Close returns, the sink
// has seen every match the engine emitted — all of them after a stream,
// none on an engine that was sent no edge.
func TestCloseReturnsAfterTheFinalDelivery(t *testing.T) {
	w := smallNetflow(time.Minute, 37)
	for _, stream := range []bool{true, false} {
		delivered := 0
		s := shard.New(&shard.Config{Shards: 2, Engine: w.Engine,
			Sink: core.MatchSinkFunc(func(core.MatchEvent) { delivered++ })})
		for _, q := range w.Queries {
			if err := s.RegisterQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		if stream {
			for _, se := range w.Edges {
				if err := s.Process(se); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Close()
		if m := s.Metrics(); uint64(delivered) != m.MatchesEmitted || stream && delivered == 0 {
			t.Fatalf("streamed=%v: sink saw %d matches by Close, engine emitted %d", stream, delivered, m.MatchesEmitted)
		}
	}
}

// TestUnfedShardStops: the first admitted edge fixes the fed shards, and
// the worker of the shard holding no query drains its mailbox (an Advance
// sent before the edge) and exits. Its engine then runs on the caller's
// goroutine: metrics, a later registration and Close still work.
func TestUnfedShardStops(t *testing.T) {
	s := shard.New(&shard.Config{Shards: 2, Engine: core.Config{Retention: time.Minute}})
	defer s.Close()
	if err := s.RegisterQuery(gen.SmurfQuery(time.Minute)); err != nil { // shard 0
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(7000, 0))
	s.Advance(base)
	if got := shard.Running(s); !slices.Equal(got, []bool{true, true}) {
		t.Fatalf("before the first edge the workers run %v, want both", got)
	}
	if err := s.Process(flowEdge(1, 1, 2, base)); err != nil {
		t.Fatal(err)
	}
	if got := shard.Running(s); !slices.Equal(got, []bool{true, false}) {
		t.Fatalf("after the first edge the workers run %v, want shard 0's only", got)
	}
	if err := s.RegisterQuery(gen.WormQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := s.Process(flowEdge(2, 2, 3, base.Add(time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	m, perShard, snap := s.Snapshot()
	if m.EdgesProcessed != 2 || len(m.Queries) != 2 || perShard[1].EdgesProcessed != 0 || snap.Counter("edges_processed", "") != 2 {
		t.Fatalf("snapshot: %d edges processed over %d queries, shard 1 %d, series %d; want 2, 2, 0, 2",
			m.EdgesProcessed, len(m.Queries), perShard[1].EdgesProcessed, snap.Counter("edges_processed", ""))
	}
	if got := s.Metrics().Registrations; got != 2 {
		t.Fatalf("Metrics reads %d registrations, want 2", got)
	}
	s.Close()
	if got := shard.Running(s); !slices.Equal(got, []bool{false, false}) {
		t.Fatalf("after Close the workers run %v, want none", got)
	}
}

// TestDuplicateCountedOnce: every fed shard drops a duplicate edge ID, but
// the aggregate views count each input edge once, as they count a late
// edge.
func TestDuplicateCountedOnce(t *testing.T) {
	queries := []func(time.Duration) *query.Graph{gen.SmurfQuery, gen.WormQuery, gen.WormChainQuery}
	for _, shards := range []int{2, 3} {
		s := shard.New(&shard.Config{Shards: shards, Engine: core.Config{Retention: time.Minute}})
		for _, q := range queries[:shards] { // one on each shard: every shard is fed
			if err := s.RegisterQuery(q(time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		base := graph.TimestampFromTime(time.Unix(8000, 0))
		for i, se := range []graph.StreamEdge{flowEdge(1, 1, 2, base), flowEdge(1, 3, 4, base.Add(time.Millisecond))} {
			if err := s.Process(se); err != nil {
				t.Fatalf("%d shards, edge %d: %v", shards, i, err)
			}
		}
		m, perShard, snap := s.Snapshot()
		obsDropped := s.ObsSnapshot().Counter("edges_dropped", "")
		s.Close()
		if m.EdgesDropped != 1 || snap.Counter("edges_dropped", "") != 1 || obsDropped != 1 || s.Metrics().EdgesDropped != 1 {
			t.Errorf("%d shards: a duplicate counted %d times by Snapshot (series %d), %d by ObsSnapshot, %d by Metrics; want once",
				shards, m.EdgesDropped, snap.Counter("edges_dropped", ""), obsDropped, s.Metrics().EdgesDropped)
		}
		for i, sm := range perShard {
			if sm.EdgesDropped != 1 || sm.EdgesProcessed != 1 {
				t.Errorf("%d shards: shard %d dropped %d and processed %d, want 1 and 1", shards, i, sm.EdgesDropped, sm.EdgesProcessed)
			}
		}
	}
}
