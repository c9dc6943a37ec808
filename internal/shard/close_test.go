package shard_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
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
// be a no-op, and every call that reaches the engine after Close must fail
// with the ErrClosed sentinel.
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

	ctx := context.Background()
	if err := s.Process(flowEdge(99, 1, 2, base.Add(time.Second))); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("Process after Close: %v, want ErrClosed", err)
	}
	if err := shard.Backend(s).ProcessBatch(ctx, []graph.StreamEdge{flowEdge(100, 1, 2, base.Add(time.Second))}); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("ProcessBatch after Close: %v, want ErrClosed", err)
	}
	if err := s.RegisterQuery(gen.WormQuery(time.Minute)); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("RegisterQuery after Close: %v, want ErrClosed", err)
	}
	if err := shard.Backend(s).UnregisterQuery(ctx, "smurf-ddos"); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("UnregisterQuery after Close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, streamworks.ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	// Metrics remain readable on a closed engine.
	if m := s.Metrics(); m.EdgesProcessed == 0 {
		t.Fatal("metrics lost after Close")
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
	m, snap := shard.Backend(s).MetricsSnapshot()
	obsDropped := shard.Backend(s).ObsSnapshot().Counter("edges_dropped", "")
	s.Close()
	if m.EdgesDropped != 1 || m.EdgesProcessed != 1 || snap.Counter("edges_dropped", "") != 1 || obsDropped != 1 || s.Metrics().EdgesDropped != 1 {
		t.Errorf("a duplicate counted %d times by MetricsSnapshot (series %d), %d by ObsSnapshot, %d by Metrics, with %d processed; want once, and 1",
			m.EdgesDropped, snap.Counter("edges_dropped", ""), obsDropped, s.Metrics().EdgesDropped, m.EdgesProcessed)
	}
}
