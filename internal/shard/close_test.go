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
	cfg := shard.DefaultConfig()
	cfg.Shards = 2
	s := shard.New(&cfg)
	if err := s.RegisterQuery(gen.SmurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	s.Start()
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
	// Start after Close is a no-op: the engine stays closed.
	s.Start()
	if err := s.Process(flowEdge(101, 1, 2, base.Add(time.Second))); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("Process after Close+Start: %v, want ErrClosed", err)
	}
	// Metrics remain readable on a closed engine.
	if m := s.Metrics(); m.EdgesProcessed == 0 {
		t.Fatal("metrics lost after Close")
	}
}

// TestCloseReturnsAfterTheFinalDelivery: right after Close returns, the sink
// has seen every match the engine emitted — all of them on a running
// engine, none on one never started.
func TestCloseReturnsAfterTheFinalDelivery(t *testing.T) {
	w := smallNetflow(time.Minute, 37)
	for _, start := range []bool{true, false} {
		delivered := 0
		s := shard.New(&shard.Config{Shards: 2, Engine: w.Engine,
			Sink: core.MatchSinkFunc(func(core.MatchEvent) { delivered++ })})
		for _, q := range w.Queries {
			if err := s.RegisterQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		if start {
			s.Start()
			for _, se := range w.Edges {
				if err := s.Process(se); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Close()
		if m := s.Metrics(); uint64(delivered) != m.MatchesEmitted || start && delivered == 0 {
			t.Fatalf("started=%v: sink saw %d matches by Close, engine emitted %d", start, delivered, m.MatchesEmitted)
		}
	}
}
