package shard_test

import (
	"sync"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/shard"
)

// The benchmarks replay one multi-pattern netflow workload (all four Fig. 3
// cyber queries).
var (
	benchOnce sync.Once
	benchW    gen.Workload
)

func benchWorkload() gen.Workload {
	benchOnce.Do(func() {
		cfg := gen.NetFlowConfig{
			Hosts:       1000,
			Servers:     60,
			Edges:       25_000,
			Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
			MeanGap:     time.Millisecond,
			ContactSkew: 1.4,
			Seed:        41,
		}
		benchW = gen.NetFlowWorkload(cfg, 30*time.Second)
	})
	return benchW
}

func BenchmarkSingleEngine(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gen.RunSingle(w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(w.Edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkShardedEngine_1 drives the backend the way benchmark/'s shard
// lanes do, one edge per batch and with no subscription, so no report is
// built: what BenchmarkSingleEngine pays beyond it is delivery.
func BenchmarkShardedEngine_1(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shard.New(&shard.Config{Engine: w.Engine})
		for _, q := range w.Queries {
			if err := s.RegisterQuery(q); err != nil {
				b.Fatal(err)
			}
		}
		for j := range w.Edges {
			if err := s.Process(w.Edges[j]); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
	}
	b.ReportMetric(float64(len(w.Edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
