package shard_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
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
	s := shard.New(nil)
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
		s := shard.New(&shard.Config{Engine: w.Engine,
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

// TestDuplicateCountedOnce: a duplicate edge ID is dropped and counted once
// by every view, as a late edge is.
func TestDuplicateCountedOnce(t *testing.T) {
	s := shard.New(&shard.Config{Engine: core.Config{Retention: time.Minute}})
	if err := s.RegisterQuery(gen.SmurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(8000, 0))
	for i, se := range []graph.StreamEdge{flowEdge(1, 1, 2, base), flowEdge(1, 3, 4, base.Add(time.Millisecond))} {
		if err := s.Process(se); err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}
	m, snap := s.Snapshot()
	obsDropped := s.ObsSnapshot().Counter("edges_dropped", "")
	s.Close()
	if m.EdgesDropped != 1 || m.EdgesProcessed != 1 || snap.Counter("edges_dropped", "") != 1 || obsDropped != 1 || s.Metrics().EdgesDropped != 1 {
		t.Errorf("a duplicate counted %d times by Snapshot (series %d), %d by ObsSnapshot, %d by Metrics, with %d processed; want once, and 1",
			m.EdgesDropped, snap.Counter("edges_dropped", ""), obsDropped, s.Metrics().EdgesDropped, m.EdgesProcessed)
	}
}
