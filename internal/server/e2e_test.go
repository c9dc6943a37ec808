package server_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
)

// TestEndToEndNetflow is the acceptance test for the serving subsystem: the
// full remote path — queries registered over HTTP in the DSL (including the
// netflow DDoS query), the generated netflow stream ingested through the
// typed client as NDJSON batches, matches consumed from a live streaming
// subscription — must deliver exactly the match set a single in-process
// engine computes for the same workload.
func TestEndToEndNetflow(t *testing.T) {
	cfg := gen.NetFlowConfig{
		Hosts:       300,
		Servers:     30,
		Edges:       4000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        7,
	}
	window := time.Minute
	w := gen.NetFlowWorkload(cfg, window)

	expected, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("single-engine reference run: %v", err)
	}
	if len(expected) == 0 {
		t.Fatal("degenerate workload: reference run found no matches")
	}

	srv := server.New(server.Config{
		Shard:            shard.Config{Shards: 4, Engine: w.Engine},
		SubscriberBuffer: 8192,
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	// The health endpoint self-describes the daemon: API version, shard
	// count, uptime.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Status != "ok" || h.Version != api.Version || h.Shards != 4 {
		t.Fatalf("health = %+v, want status=ok version=%s shards=4", h, api.Version)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("health uptime negative: %v", h.UptimeSeconds)
	}

	for _, q := range w.Queries {
		reg, err := c.RegisterQuery(ctx, q)
		if err != nil {
			t.Fatalf("registering %q over HTTP: %v", q.Name(), err)
		}
		if reg.Name != q.Name() {
			t.Fatalf("registered name %q, want %q", reg.Name, q.Name())
		}
	}
	// The server can echo each query back as equivalent DSL.
	qresp, err := http.Get(hs.URL + "/v1/queries/smurf-ddos")
	if err != nil {
		t.Fatalf("fetching query DSL: %v", err)
	}
	dsl, err := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if err != nil || qresp.StatusCode != http.StatusOK {
		t.Fatalf("fetching query DSL: HTTP %d, %v", qresp.StatusCode, err)
	}
	if _, perr := query.ParseString(string(dsl)); perr != nil {
		t.Fatalf("echoed DSL does not parse: %v", perr)
	}

	// Subscribe to every match, then stream the workload in while the
	// subscription is live (matches arrive concurrently with ingest).
	sub, err := c.SubscribeMatches(ctx, "")
	if err != nil {
		t.Fatalf("subscribing: %v", err)
	}
	defer sub.Close()
	got := make(gen.MatchSet)
	recvDone := make(chan error, 1)
	go func() {
		for {
			rep, err := sub.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				recvDone <- err
				return
			}
			got.AddKey(rep.Query, rep.Signature)
		}
	}()

	const batch = 1000
	sent := 0
	for i := 0; i < len(w.Edges); i += batch {
		j := min(i+batch, len(w.Edges))
		res, err := c.IngestBatch(ctx, w.Edges[i:j], true)
		if err != nil {
			t.Fatalf("ingesting batch at %d: %v", i, err)
		}
		if res.Accepted != j-i {
			t.Fatalf("batch at %d: accepted %d of %d", i, res.Accepted, j-i)
		}
		sent += res.Accepted
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Server.EdgesIngested != uint64(sent) {
		t.Fatalf("EdgesIngested = %d, want %d", m.Server.EdgesIngested, sent)
	}
	if len(m.Shards) != 4 {
		t.Fatalf("per-shard metrics = %d entries, want 4", len(m.Shards))
	}

	// Graceful drain flushes the shards and ends the subscription cleanly.
	srv.Close()
	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatalf("subscription ended with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("subscription did not end after server drain")
	}

	if !got.Equal(expected) {
		t.Fatalf("streamed match set diverges from single-engine run: got %d matches, want %d",
			len(got), len(expected))
	}
}

// TestEndToEndFilteredSubscription checks a query-filtered subscription
// delivers exactly that query's single-engine match set.
func TestEndToEndFilteredSubscription(t *testing.T) {
	cfg := gen.NetFlowConfig{
		Hosts:       200,
		Servers:     20,
		Edges:       2500,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        11,
	}
	window := time.Minute
	w := gen.NetFlowWorkload(cfg, window)

	smurfOnly := w
	smurfOnly.Queries = []*query.Graph{gen.SmurfQuery(window)}
	expected, _, err := gen.RunSingle(smurfOnly)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(expected) == 0 {
		t.Fatal("degenerate workload: no smurf matches")
	}

	srv := server.New(server.Config{
		Shard:            shard.Config{Shards: 3, Engine: w.Engine},
		SubscriberBuffer: 8192,
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	// All four queries registered; the subscription filters to one.
	for _, q := range w.Queries {
		if _, err := c.RegisterQuery(ctx, q); err != nil {
			t.Fatalf("registering %q: %v", q.Name(), err)
		}
	}
	// Subscribing to an unknown query fails fast.
	if _, err := c.SubscribeMatches(ctx, "no-such-query"); err == nil {
		t.Fatal("subscription to unknown query succeeded")
	}
	sub, err := c.SubscribeMatches(ctx, "smurf-ddos")
	if err != nil {
		t.Fatalf("subscribing: %v", err)
	}
	defer sub.Close()
	got := make(gen.MatchSet)
	recvDone := make(chan error, 1)
	go func() {
		for {
			rep, err := sub.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				recvDone <- err
				return
			}
			if rep.Query != "smurf-ddos" {
				recvDone <- errors.New("filtered subscription delivered " + rep.Query)
				return
			}
			got.AddKey(rep.Query, rep.Signature)
		}
	}()

	if _, err := c.IngestBatch(ctx, w.Edges, true); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	srv.Close()
	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatalf("subscription: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("subscription did not end after drain")
	}
	if !got.Equal(expected) {
		t.Fatalf("filtered match set diverges: got %d, want %d", len(got), len(expected))
	}
}
