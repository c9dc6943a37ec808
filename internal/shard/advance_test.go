package shard

import (
	"math"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// laggingStream starts a four-shard engine with a 10 s retention and feeds
// it a stream that leaves shards behind: 64 edges spread across every shard
// at early timestamps, then 16 edges 30 s later between one vertex pair, so
// at most two shards see them. It returns the engine, the edge copies phase
// one delivered, and the newest routed timestamp. With broadcasts false the
// edge-time watermark broadcast is switched off.
func laggingStream(t *testing.T, broadcasts bool) (s *ShardedEngine, phase1 uint64, last graph.Timestamp) {
	t.Helper()
	cfg := Config{Shards: 4}
	cfg.Engine.Retention = 10 * time.Second
	s = New(&cfg)
	if !broadcasts {
		s.advanceEvery = math.MaxInt64
	}
	q := query.NewBuilder("smurf").
		Window(10*time.Second).
		Vertex("attacker", "Host").
		Vertex("amplifier", "Host").
		Vertex("victim", "Host").
		Edge("attacker", "amplifier", "icmp_echo_req").
		Edge("amplifier", "victim", "icmp_echo_rep").
		MustBuild()
	if err := s.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	base := graph.TimestampFromTime(time.Unix(2000, 0))
	edge := func(id int, src, dst graph.VertexID, ts graph.Timestamp) graph.StreamEdge {
		return graph.StreamEdge{
			Edge:       graph.Edge{ID: graph.EdgeID(id), Source: src, Target: dst, Type: "flow", Timestamp: ts},
			SourceType: "Host", TargetType: "Host",
		}
	}
	for i := 0; i < 64; i++ {
		s.Process(edge(i+1, graph.VertexID(i), graph.VertexID(i+500), base.Add(time.Duration(i)*10*time.Millisecond)))
	}
	phase1 = s.Metrics().EdgesProcessed
	for i := 0; i < 16; i++ {
		last = base.Add(30*time.Second + time.Duration(i)*100*time.Millisecond)
		s.Process(edge(1000+i, 7, 9, last))
	}
	return s, phase1, last
}

func TestShardedAdvanceReachesLaggingShards(t *testing.T) {
	// With edge-time broadcasts switched off, shards that stop receiving
	// edges keep stale watermarks. An explicit Advance — even to a time not
	// beyond the newest routed edge — must still reach them so they expire.
	s, _, last := laggingStream(t, false)
	defer s.Close()
	m1 := s.Metrics()
	// An advance exactly to the newest routed timestamp is not a no-op: it
	// carries stream time to the shards phase 2 never touched.
	s.Advance(last)
	m2 := s.Metrics()
	if m2.ExpiredEdges <= m1.ExpiredEdges {
		t.Fatalf("Advance(maxTS) expired nothing on lagging shards: %d -> %d expired",
			m1.ExpiredEdges, m2.ExpiredEdges)
	}
}

// TestEdgeTimeReachesLaggingShards: without any explicit Advance, the
// broadcast step derived from the retention carries edge time to the shards
// that stopped receiving edges, so every copy of the early edges expires.
func TestEdgeTimeReachesLaggingShards(t *testing.T) {
	off, offPhase1, _ := laggingStream(t, false)
	defer off.Close()
	if m := off.Metrics(); m.ExpiredEdges >= offPhase1 {
		t.Fatalf("with broadcasts off %d of %d early copies expired; the stream leaves no shard behind",
			m.ExpiredEdges, offPhase1)
	}

	s, phase1, _ := laggingStream(t, true)
	defer s.Close()
	if m := s.Metrics(); m.ExpiredEdges != phase1 {
		t.Fatalf("edge time expired %d of the %d early copies", m.ExpiredEdges, phase1)
	}
}

func TestBroadcastStepFollowsRetention(t *testing.T) {
	for _, c := range []struct {
		name      string
		retention time.Duration
		want      time.Duration
	}{
		{"unbounded", 0, time.Second},
		{"10s", 10 * time.Second, 1250 * time.Millisecond},
		{"80ms", 80 * time.Millisecond, 10 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Shards: 4}
			cfg.Engine.Retention = c.retention
			s := New(&cfg)
			defer s.Close()
			if s.advanceEvery != c.want {
				t.Errorf("broadcast step = %v, want %v", s.advanceEvery, c.want)
			}
		})
	}
}
