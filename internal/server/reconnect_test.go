package server_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
)

// matchCollector accumulates (query, signature) keys from a RetryStream on
// its own goroutine, tracking duplicates and total count.
type matchCollector struct {
	mu    sync.Mutex
	seen  gen.MatchSet
	total int
	dups  int
}

func newMatchCollector() *matchCollector {
	return &matchCollector{seen: make(gen.MatchSet)}
}

func (mc *matchCollector) add(query, signature string) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	before := len(mc.seen)
	mc.seen.AddKey(query, signature)
	mc.total++
	if len(mc.seen) == before {
		mc.dups++
	}
}

func (mc *matchCollector) snapshot() (gen.MatchSet, int, int) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	out := make(gen.MatchSet, len(mc.seen))
	for k := range mc.seen {
		out[k] = struct{}{}
	}
	return out, mc.total, mc.dups
}

func (mc *matchCollector) size() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.seen)
}

// collectRetry drains rs into mc until the context ends.
func collectRetry(rs *client.RetryStream, mc *matchCollector) {
	for {
		rep, err := rs.Next()
		if err != nil {
			return
		}
		mc.add(rep.Query, rep.Signature)
	}
}

// smurfWave builds n request/reply pairs through one amplifier with distinct
// edge IDs and victims, timestamps advancing from base. Every (request,
// reply) combination in the window completes the smurf pattern.
func smurfWave(firstEdge int, firstVictim graph.VertexID, base graph.Timestamp, n int) []graph.StreamEdge {
	edges := make([]graph.StreamEdge, 0, 2*n)
	id := firstEdge
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(2*i) * time.Millisecond)
		edges = append(edges, hostEdgeAt(id, 1, 2, gen.EdgeICMPReq, ts))
		id++
		edges = append(edges, hostEdgeAt(id, 2, firstVictim+graph.VertexID(i), gen.EdgeICMPReply, ts.Add(time.Millisecond)))
		id++
	}
	return edges
}

// TestRetryStreamReconnectBinary: two binary-transport RetryStream
// subscribers survive a mid-stream connection break. After both transparently
// resubscribe, a second ingest wave must reach both exactly once — no lost
// and no duplicate post-reconnect deliveries — and their full match sets must
// agree. Runs under -race in CI.
func TestRetryStreamReconnectBinary(t *testing.T) {
	srv := server.New(server.Config{
		Shard:            shard.Config{Shards: 2},
		SubscriberBuffer: 8192,
	})
	hs := httptest.NewServer(srv)
	defer func() {
		srv.Close()
		hs.Close()
	}()
	c := client.New(hs.URL,
		client.WithTransport(client.TransportBinary),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond}),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if _, err := c.RegisterQuery(ctx, gen.SmurfQuery(10*time.Minute)); err != nil {
		t.Fatalf("registering query: %v", err)
	}

	streams := make([]*client.RetryStream, 2)
	collectors := make([]*matchCollector, 2)
	var wg sync.WaitGroup
	for i := range streams {
		streams[i] = c.SubscribeMatchesRetry(ctx, "")
		collectors[i] = newMatchCollector()
		wg.Add(1)
		go func(rs *client.RetryStream, mc *matchCollector) {
			defer wg.Done()
			collectRetry(rs, mc)
		}(streams[i], collectors[i])
	}
	// The lazy first dial happens inside Next; wait for both subscriptions
	// to be live before ingesting so no wave-1 match predates them.
	waitForCond(t, 5*time.Second, "both subscribers live", func() bool {
		m, err := c.Metrics(ctx)
		return err == nil && m.Server.Subscribers == 2
	})

	// Wave 1: 4 pairs → 16 matches (every request × every reply).
	base := graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))
	const pairs = 4
	if _, err := c.IngestBatch(ctx, smurfWave(1, 100, base, pairs), true); err != nil {
		t.Fatalf("wave-1 ingest: %v", err)
	}
	wave1 := pairs * pairs
	waitForCond(t, 10*time.Second, "wave-1 delivered to both", func() bool {
		return collectors[0].size() == wave1 && collectors[1].size() == wave1
	})

	// Break every live connection mid-stream. Both RetryStreams must heal
	// under the retry policy.
	hs.CloseClientConnections()
	// Sustained, not momentary: a broken handler not yet torn down could
	// transiently hold the count at 2 while a resubscribe is still dialing.
	waitForStable(t, 10*time.Second, "both subscribers resubscribed", func() bool {
		m, err := c.Metrics(ctx)
		return err == nil && m.Server.Subscribers == 2
	})

	// Wave 2: 4 new pairs in the same window. Every (request, reply) pair
	// across both waves matches, so the full set is (2·pairs)² keys, all
	// distinct from wave 1 — the in-memory server redelivers nothing, so
	// each subscriber must now converge on the full set with zero
	// duplicates.
	if _, err := c.IngestBatch(ctx, smurfWave(100, 200, base.Add(time.Second), pairs), true); err != nil {
		t.Fatalf("wave-2 ingest: %v", err)
	}
	full := (2 * pairs) * (2 * pairs)
	waitForCond(t, 10*time.Second, "wave-2 delivered to both", func() bool {
		return collectors[0].size() == full && collectors[1].size() == full
	})

	// Cancelling the context ends each collector's in-flight Next; only
	// after the goroutines exit is it race-free to inspect the streams.
	cancel()
	wg.Wait()
	for _, rs := range streams {
		rs.Close()
	}

	set0, total0, dups0 := collectors[0].snapshot()
	set1, total1, dups1 := collectors[1].snapshot()
	if dups0 != 0 || dups1 != 0 {
		t.Fatalf("duplicate deliveries after reconnect: %d and %d", dups0, dups1)
	}
	if total0 != full || total1 != full {
		t.Fatalf("delivery counts %d and %d, want %d each", total0, total1, full)
	}
	if !set0.Equal(set1) {
		t.Fatalf("subscribers disagree: %d vs %d keys", len(set0), len(set1))
	}
	for i, rs := range streams {
		if rs.Reconnects() == 0 {
			t.Errorf("stream %d reports zero reconnects after the connection break", i)
		}
	}
}

// waitForCond polls cond until it holds or the deadline passes.
func waitForCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitForStable polls until cond has held continuously for ~100ms.
func waitForStable(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	streak := 0
	for time.Now().Before(deadline) {
		if cond() {
			streak++
			if streak >= 20 {
				return
			}
		} else {
			streak = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (stable)", what)
}
