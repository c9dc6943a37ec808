package shard

import (
	"testing"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
)

// TestFoldPlansTakesTheFirstListingShardsPlan: each shard plans a query
// against its own partition's statistics, so two shards may describe two
// plans of one query. The folded view takes the plan detail from the first
// shard listing the query, sums the coverage views over every shard, and
// keeps shard 0's registration order.
func TestFoldPlansTakesTheFirstListingShardsPlan(t *testing.T) {
	perShard := []core.Metrics{
		{Queries: []core.QueryMetrics{
			{Name: "hub", Strategy: decompose.StrategySelective, PlanNodes: 3, PlanDepth: 2, PartialMatches: 4, LocalSearches: 10},
			{Name: "hub-free", Strategy: decompose.StrategyLazy, PlanNodes: 5, PlanDepth: 3, PartialMatches: 7, LocalSearches: 2},
		}},
		{Queries: []core.QueryMetrics{
			{Name: "hub", Strategy: decompose.StrategySelective, PlanNodes: 5, PlanDepth: 3, PartialMatches: 6, LocalSearches: 20},
		}},
	}
	want := []core.QueryMetrics{
		{Name: "hub", Strategy: decompose.StrategySelective, PlanNodes: 3, PlanDepth: 2, PartialMatches: 10, LocalSearches: 30},
		{Name: "hub-free", Strategy: decompose.StrategyLazy, PlanNodes: 5, PlanDepth: 3, PartialMatches: 7, LocalSearches: 2},
	}
	got := foldPlans(perShard).Queries
	if len(got) != len(want) {
		t.Fatalf("folded %d queries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d folded to %+v, want %+v", i, got[i], want[i])
		}
	}
}
