package server_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	streamworks "github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
)

// sessionStream is a seed-1 news stream of 81,920 edges (320 batches of
// 256), shaped like the served benchmark's warm-up: the Fig. 2 co-mention
// query over a 20-minute window, with event clusters injected.
var (
	sessionOnce  sync.Once
	sessionEdges []graph.StreamEdge
)

const (
	sessionBatch  = 256
	sessionWindow = 20 * time.Minute
)

func sessionStream() []graph.StreamEdge {
	sessionOnce.Do(func() {
		const edges = 320 * sessionBatch
		cfg := gen.DefaultNewsConfig()
		cfg.Seed = 1
		cfg.Articles = edges/6 + 1000
		cfg.Keywords = 4000
		cfg.EventClusters = cfg.Articles / 100
		cfg.EventSpan = sessionWindow / 2
		all, _ := gen.NewNews(cfg, nil).Generate()
		sessionEdges = all[:edges]
	})
	return sessionEdges
}

// BenchmarkIngestSessionBatches times the served session path: a client
// (streamworks.Connect over TransportBinary) sends a news stream in 256-edge
// batches to a daemon on a loopback listener, each batch its edge frames and
// a sync frame on one ingest session, answered by an ack once the engine
// has applied the batch. One op is the whole stream, against a fresh daemon
// with the query registered and nobody subscribed. Client and daemon share
// the process, so allocs/edge counts both sides.
func BenchmarkIngestSessionBatches(b *testing.B) {
	edges := sessionStream()
	ctx := context.Background()
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := server.New(server.Config{Shard: shard.Config{Engine: core.Config{
			Retention: sessionWindow, EnableSummaries: true, TriadSampling: 10,
		}}})
		hs := httptest.NewServer(srv)
		rem, err := streamworks.Connect(ctx, hs.URL, streamworks.WithTransport(streamworks.TransportBinary))
		if err != nil {
			b.Fatal(err)
		}
		if err := rem.RegisterQuery(ctx, gen.NewsEventQuery(sessionWindow, 2, "")); err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for j := 0; j < len(edges); j += sessionBatch {
			if err := rem.ProcessBatch(ctx, edges[j:j+sessionBatch]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if m, err := rem.Metrics(ctx); err != nil || m.EdgesProcessed != uint64(len(edges)) {
			b.Fatalf("the daemon processed %d of %d edges (%v)", m.EdgesProcessed, len(edges), err)
		}
		rem.Close()
		srv.Close()
		hs.Close()
	}
	n := float64(b.N) * float64(len(edges))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/edge")
	b.ReportMetric(float64(mallocs)/n, "allocs/edge")
}
