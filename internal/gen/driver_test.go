package gen

import (
	"sort"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

func tinyNetflowWorkload() Workload {
	cfg := NetFlowConfig{
		Hosts:       120,
		Servers:     12,
		Edges:       1500,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        51,
	}
	return NetFlowWorkload(cfg, 30*time.Second)
}

func TestNetFlowWorkloadComposition(t *testing.T) {
	w := tinyNetflowWorkload()
	if len(w.Queries) != 4 {
		t.Fatalf("netflow workload carries %d queries, want 4", len(w.Queries))
	}
	// The merged stream (background + three attack streams) must be
	// time-ordered and larger than the background alone.
	if len(w.Edges) <= 1500 {
		t.Fatalf("attack edges not merged in: %d edges", len(w.Edges))
	}
	if !sort.SliceIsSorted(w.Edges, func(i, j int) bool {
		return w.Edges[i].Edge.Timestamp < w.Edges[j].Edge.Timestamp
	}) {
		t.Fatalf("workload stream not time-ordered")
	}
	ids := make(map[graph.EdgeID]bool, len(w.Edges))
	for _, se := range w.Edges {
		if ids[se.Edge.ID] {
			t.Fatalf("duplicate edge ID %d in workload", se.Edge.ID)
		}
		ids[se.Edge.ID] = true
	}
	if w.Engine.Retention != 30*time.Second {
		t.Fatalf("engine retention = %s", w.Engine.Retention)
	}
}

// TestRunSingleAndShardedAgreeOnTinyWorkload: the public backend finds the
// oracle's matches, in one batch and one edge per batch, as benchmark/'s
// shard lanes drive it.
func TestRunSingleAndShardedAgreeOnTinyWorkload(t *testing.T) {
	w := tinyNetflowWorkload()
	single, sm, err := RunSingle(w)
	if err != nil {
		t.Fatalf("RunSingle: %v", err)
	}
	if len(single) == 0 {
		t.Fatalf("tiny workload produced no matches")
	}
	if sm.EdgesProcessed == 0 {
		t.Fatalf("single metrics empty: %+v", sm)
	}
	if ref := Oracle(w); !single.Equal(ref) {
		t.Fatalf("RunSingle found %d matches, the oracle %d", len(single), len(ref))
	}
	sharded, err := runShardConfig(w, false)
	if err != nil {
		t.Fatalf("Shards: 2: %v", err)
	}
	if !single.Equal(sharded) {
		t.Fatalf("driver runs disagree: single %d vs Shards: 2 %d matches", len(single), len(sharded))
	}
}

func TestNewsWorkloadMatchesEvents(t *testing.T) {
	cfg := DefaultNewsConfig()
	cfg.Articles = 400
	cfg.Keywords = 120
	cfg.Locations = 20
	cfg.EventClusters = 2
	w := NewsWorkload(cfg, 5*time.Minute, 2)
	if len(w.Queries) != 1 {
		t.Fatalf("news workload carries %d queries", len(w.Queries))
	}
	set, _, err := RunSingle(w)
	if err != nil {
		t.Fatalf("RunSingle(news): %v", err)
	}
	if len(set) == 0 {
		t.Fatalf("news workload produced no co-mention matches")
	}
}
