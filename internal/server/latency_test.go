package server_test

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/server"
)

// TestFlushOnMatchLatencyIndependentOfBatchSize is the serving-path latency
// regression test: a match completed by an edge at the FRONT of an ingest
// body must be delivered while the rest of the body is still decoding, so
// match latency is governed by the dispatch chunk, not the request size. The
// p50 over several rounds must stay flat (within generous CI slack) as the
// batch grows two orders of magnitude — the signature of queue-then-drain
// ingest is latency growing linearly with the batch.
func TestFlushOnMatchLatencyIndependentOfBatchSize(t *testing.T) {
	srv := server.New(server.Config{
		SubscriberBuffer: 1024,
		MaxBatchEdges:    1 << 20,
	})
	hs := httptest.NewServer(srv)
	defer func() {
		srv.Close()
		hs.Close()
	}()
	c := client.New(hs.URL)
	ctx := context.Background()

	if _, err := c.RegisterQuery(ctx, gen.SmurfQuery(10*time.Minute)); err != nil {
		t.Fatalf("registering query: %v", err)
	}
	sub, err := c.SubscribeMatches(ctx, "")
	if err != nil {
		t.Fatalf("subscribing: %v", err)
	}
	defer sub.Close()
	// matchSeen delivers one signal per received match report.
	matchSeen := make(chan struct{}, 64)
	go func() {
		for {
			if _, err := sub.Next(); err != nil {
				return
			}
			matchSeen <- struct{}{}
		}
	}()

	const rounds = 5
	sizes := []int{128, 1024, 8192}
	base := graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))
	nextEdge, nextVertex := 1, graph.VertexID(1)
	p50 := make(map[int]time.Duration, len(sizes))

	for _, size := range sizes {
		lats := make([]time.Duration, 0, rounds)
		for r := 0; r < rounds; r++ {
			// One matching request/reply pair up front, noise for the rest.
			// Fresh vertices every round keep the match count at exactly one.
			edges := make([]graph.StreamEdge, 0, size)
			ts := base
			a, b, v := nextVertex, nextVertex+1, nextVertex+2
			nextVertex += 3
			edges = append(edges,
				hostEdgeAt(nextEdge, a, b, gen.EdgeICMPReq, ts),
				hostEdgeAt(nextEdge+1, b, v, gen.EdgeICMPReply, ts.Add(time.Millisecond)),
			)
			nextEdge += 2
			for len(edges) < size {
				ts = ts.Add(time.Millisecond)
				edges = append(edges, hostEdgeAt(nextEdge, nextVertex, nextVertex+1, "noise", ts))
				nextEdge++
				nextVertex += 2
			}
			base = ts.Add(time.Millisecond)

			start := time.Now()
			ingestDone := make(chan error, 1)
			go func() {
				_, err := c.IngestBatch(ctx, edges, true)
				ingestDone <- err
			}()
			select {
			case <-matchSeen:
				lats = append(lats, time.Since(start))
			case <-time.After(30 * time.Second):
				t.Fatalf("size %d round %d: match never delivered", size, r)
			}
			if err := <-ingestDone; err != nil {
				t.Fatalf("size %d round %d: ingest: %v", size, r, err)
			}
		}
		slices.Sort(lats)
		p50[size] = lats[len(lats)/2]
		t.Logf("batch size %5d: p50 match latency %v (all %v)", size, p50[size], lats)
	}

	// Generous absolute ceiling for a loaded 1-CPU CI runner: even there a
	// front-of-body match clears the first dispatch chunk in well under this.
	for _, size := range sizes {
		if p50[size] > 750*time.Millisecond {
			t.Errorf("batch size %d: p50 match latency %v exceeds 750ms", size, p50[size])
		}
	}
	// Independence: a 64× larger batch must not shift the p50 by more than
	// scheduler noise. Queue-then-drain ingest fails this by the decode+
	// process time of the extra ~8000 edges.
	small, large := p50[sizes[0]], p50[sizes[len(sizes)-1]]
	if large > 6*small+250*time.Millisecond {
		t.Errorf("p50 grew with batch size: %v at %d edges vs %v at %d edges",
			large, sizes[len(sizes)-1], small, sizes[0])
	}
}

// hostEdgeAt builds a fully-described stream edge (endpoint metadata on
// every edge).
func hostEdgeAt(id int, src, dst graph.VertexID, typ string, ts graph.Timestamp) graph.StreamEdge {
	return graph.StreamEdge{
		Edge: graph.Edge{
			ID:        graph.EdgeID(id),
			Source:    src,
			Target:    dst,
			Type:      typ,
			Timestamp: ts,
		},
		SourceType: gen.TypeHost,
		TargetType: gen.TypeHost,
	}
}
