package gen

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/core"
)

// shardRow is one workload at one shard count, per input edge: edge applies
// and local searches summed over the shards and on the busiest one, and the
// partial rows the DAGs stored over the run, summed.
type shardRow struct {
	applies, busiestApplies   float64
	searches, busiestSearches float64
	partials                  float64
	fed                       int // shards that applied an edge
}

// runShardRow is RunSharded's run, read per shard once the engine has closed.
func runShardRow(t *testing.T, w Workload, shards int) (MatchSet, shardRow) {
	t.Helper()
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine), streamworks.WithShards(shards))
	set, err := RunEngine(eng, w)
	if err != nil {
		t.Fatal(err)
	}
	_, perShard, _ := eng.MetricsSnapshot()
	var row shardRow
	n := float64(len(w.Edges))
	for _, m := range perShard {
		applies, searches := float64(m.EdgesProcessed)/n, float64(m.LocalSearches)/n
		row.applies += applies
		row.searches += searches
		row.busiestApplies = max(row.busiestApplies, applies)
		row.busiestSearches = max(row.busiestSearches, searches)
		row.partials += float64(inserted(m)) / n
		if m.EdgesProcessed > 0 {
			row.fed++
		}
	}
	return set, row
}

// inserted is the number of partial rows m's DAG stored over the run.
func inserted(m core.Metrics) uint64 {
	var n uint64
	for _, ns := range m.MQO.PerNode {
		n += ns.Inserted
	}
	return n
}

// TestShardRows is the shard rows of the cost ledger: small seeded netflow,
// many-queries and news workloads at 1, 2 and 4 shards, the many-queries
// shape twice, with the 16 queries of the equivalence matrix and with the 50
// of the ROADMAP's finding 6. Every match set is the one-shard set, and the
// news workload's one query feeds one shard. On the 50 queries, two shards
// together run at most 1.05× of one shard's local searches; the busiest of
// two runs at most 0.90× of them (0.85× measured: queries are dealt in
// registration order, and a leaf that queries on both shards read is
// searched on both), and the busiest of four at most 0.75× (0.72×). Run
// with -v for the rows README quotes.
func TestShardRows(t *testing.T) {
	t.Log("| workload | shards | edge applies: summed / busiest | local searches: summed / busiest | partials stored |")
	for _, w := range []Workload{tinyNetflowWorkload(), tinyManyQueriesWorkload(), BenchManyQueriesWorkload(50, 5000, 400, 10*time.Second), tinyNewsWorkload()} {
		var one MatchSet
		var oneRow shardRow
		for _, shards := range []int{1, 2, 4} {
			set, row := runShardRow(t, w, shards)
			t.Logf("| %s (%d queries, %d edges) | %d | %.2f / %.2f | %.3f / %.3f | %.3f |", w.Name, len(w.Queries), len(w.Edges), shards,
				row.applies, row.busiestApplies, row.searches, row.busiestSearches, row.partials)
			if shards == 1 {
				one, oneRow = set, row
				if len(one) == 0 {
					t.Fatalf("%s: no matches; the workload proves nothing", w.Name)
				}
				continue
			}
			if !set.Equal(one) {
				t.Errorf("%s, %d shards: %d matches, one shard %d", w.Name, shards, len(set), len(one))
			}
			if len(w.Queries) == 1 && row.fed != 1 {
				t.Errorf("%s, %d shards: %d shards applied edges for one query, want 1", w.Name, shards, row.fed)
			}
			if len(w.Queries) != 50 {
				continue
			}
			busiest, summed := row.busiestSearches/oneRow.searches, row.searches/oneRow.searches
			if bound := map[int]float64{2: 0.90, 4: 0.75}[shards]; busiest > bound {
				t.Errorf("many-queries, %d shards: the busiest shard runs %.2f× one shard's local searches, want ≤ %.2f×", shards, busiest, bound)
			}
			if summed > 1.05 {
				t.Errorf("many-queries, %d shards: the shards run %.2f× one shard's local searches together, want ≤ 1.05×", shards, summed)
			}
		}
	}
}
