package shard

import (
	"testing"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// TestLoneShardDeliversWithoutAllocating: a lone shard owns every match,
// so handing one to the sink is the delivery lock, the dispatch histogram
// and the call — no owner lookup, no per-query count, no allocation.
func TestLoneShardDeliversWithoutAllocating(t *testing.T) {
	delivered := 0
	s := New(&Config{
		Shards: 1,
		Engine: core.Config{Obs: obs.Config{Enabled: true}},
		Sink:   core.MatchSinkFunc(func(core.MatchEvent) { delivered++ }),
	})
	defer s.Close()
	ev := core.MatchEvent{Query: "q", Match: &match.Match{}, EmittedWallNS: 1}
	allocbudget.Check(t, "shard.worker.deliver/one shard", func() { s.workers[0].deliver(ev) })
	if delivered != allocbudget.Runs+1 {
		t.Fatalf("%d deliveries, want %d", delivered, allocbudget.Runs+1)
	}
}
