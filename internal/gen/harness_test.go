package gen

import (
	"context"
	"fmt"
	"slices"

	"github.com/streamworks/streamworks"
)

// runShardConfig replays w through the public backend one edge per
// ProcessBatch, the way benchmark/'s shard lanes drive it, and returns the
// canonical match set, or an error when a match was sent twice. Every shard
// count of those lanes runs this one engine (shard.Config.Shards is read by
// nothing), so it must find what RunEngine finds. With reregister, every
// query is unregistered and registered again under the next strategy of
// streamworks.PlanStrategies at half and at five sixths of the stream, as
// RunReregistering does.
func runShardConfig(w Workload, reregister bool) (MatchSet, error) {
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	defer eng.Close()
	ctx := context.Background()
	set, dup := make(MatchSet), ""
	if _, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
		if !set.AddKey(m.Query, m.Signature) && dup == "" {
			dup = m.Query + " " + m.Signature
		}
	})); err != nil {
		return nil, err
	}
	strategies := streamworks.PlanStrategies()
	at := max(slices.Index(strategies, w.Register.Strategy), 0)
	register := func(strat string) error {
		for _, q := range w.Queries {
			if err := eng.RegisterQueryWith(ctx, q, streamworks.RegisterOptions{Strategy: strat}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := register(strategies[at]); err != nil {
		return nil, err
	}
	var moves []int
	if reregister {
		moves = []int{len(w.Edges) / 2, len(w.Edges) * 5 / 6}
	}
	from := 0
	for k, to := range append(moves, len(w.Edges)) {
		for i := from; i < to; i++ {
			if err := eng.ProcessBatch(ctx, w.Edges[i:i+1]); err != nil {
				return nil, err
			}
		}
		from = to
		if k == len(moves) {
			break
		}
		for _, q := range w.Queries {
			if err := eng.UnregisterQuery(ctx, q.Name()); err != nil {
				return nil, err
			}
		}
		if err := register(strategies[(at+k+1)%len(strategies)]); err != nil {
			return nil, err
		}
	}
	if dup != "" {
		return nil, fmt.Errorf("gen: %s: %s sent twice", w.Name, dup)
	}
	return set, nil
}
