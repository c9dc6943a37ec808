package gen

import (
	"fmt"
	"slices"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/shard"
)

// runShardConfig replays w through the front-end built the way benchmark/
// builds it, shard.New with Config.Shards set to shards, and returns the
// canonical match set, or an error when a match was sent twice. Shards is
// read by nothing, so every count runs the one engine the public backend
// runs, and must find what RunEngine finds. With reregister, every query
// is unregistered and registered again under the next strategy of
// decompose.Strategies at half and at five sixths of the stream, as
// RunReregistering does.
func runShardConfig(w Workload, shards int, reregister bool) (MatchSet, error) {
	set, dup := make(MatchSet), ""
	s := shard.New(&shard.Config{Shards: shards, Engine: w.Engine,
		Sink: core.MatchSinkFunc(func(ev core.MatchEvent) {
			if !set.Add(ev) && dup == "" {
				dup = ev.Query + " " + ev.CanonicalSignature()
			}
		})})
	defer s.Close()
	s.Start()
	strategies := decompose.Strategies()
	at := max(slices.Index(strategies, decompose.Strategy(w.Register.Strategy)), 0)
	register := func(strat decompose.Strategy) error {
		for _, q := range w.Queries {
			if err := s.RegisterQuery(q, core.WithStrategy(strat)); err != nil {
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
			if err := s.Process(w.Edges[i]); err != nil {
				return nil, err
			}
		}
		from = to
		if k == len(moves) {
			break
		}
		for _, q := range w.Queries {
			if err := s.UnregisterQuery(q.Name()); err != nil {
				return nil, err
			}
		}
		if err := register(strategies[(at+k+1)%len(strategies)]); err != nil {
			return nil, err
		}
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	if dup != "" {
		return nil, fmt.Errorf("gen: %s: %s sent twice", w.Name, dup)
	}
	return set, nil
}
