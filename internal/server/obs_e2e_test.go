package server_test

// End-to-end coverage for the observability layer through the serving tier:
// the daemon self-describes its build and obs state on /healthz, the
// per-segment latency histograms fill in as a real workload flows through,
// and the Prometheus exposition parses and carries the expected families.
// The workload and
// client plumbing mirror TestEndToEndNetflow so the only new variable is
// observability being switched on.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
)

func obsWorkload() gen.Workload {
	cfg := gen.NetFlowConfig{
		Hosts:       250,
		Servers:     25,
		Edges:       3000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        23,
	}
	return gen.NetFlowWorkload(cfg, time.Minute)
}

func TestEndToEndObservability(t *testing.T) {
	w := obsWorkload()
	expected, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(expected) == 0 {
		t.Fatal("degenerate workload: no matches")
	}

	w.Engine.Obs = obs.Config{Enabled: true}
	srv := server.New(server.Config{
		Shard:            shard.Config{Shards: 2, Engine: w.Engine},
		SubscriberBuffer: 8192,
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.GoVersion != runtime.Version() {
		t.Fatalf("health go_version = %q, want %q", h.GoVersion, runtime.Version())
	}
	if !h.ObsEnabled {
		t.Fatalf("health obs_enabled = false with observability on: %+v", h)
	}

	for _, q := range w.Queries {
		if _, err := c.RegisterQuery(ctx, q); err != nil {
			t.Fatalf("registering %q: %v", q.Name(), err)
		}
	}
	sub, err := c.SubscribeMatches(ctx, "")
	if err != nil {
		t.Fatalf("subscribing: %v", err)
	}
	defer sub.Close()
	got := make(gen.MatchSet)
	received := make(chan struct{}, 1)
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
			if len(got) == len(expected) {
				select {
				case received <- struct{}{}:
				default:
				}
			}
		}
	}()

	if _, err := c.IngestBatch(ctx, w.Edges, true); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	// Wait for the full match set so the dispatch and http_flush segments
	// have definitely been observed before the snapshots are read.
	select {
	case <-received:
	case <-time.After(30 * time.Second):
		t.Fatalf("received %d of %d matches before timeout", len(got), len(expected))
	}

	// /v1/metrics carries the merged histogram snapshot; every wall-time
	// journey segment must have observations for this workload.
	m, err := c.Metrics(ctx)
	// The server observes a match's journey just after the flush that
	// delivered it, so the last observation can trail the client's receipt.
	for deadline := time.Now().Add(5 * time.Second); err == nil && m.Obs != nil && time.Now().Before(deadline); m, err = c.Metrics(ctx) {
		if jh, _ := m.Obs.Find(obs.JourneyHistogramName, ""); jh.Count >= uint64(len(expected)) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Obs == nil {
		t.Fatal("metrics response has no obs snapshot with observability on")
	}
	for _, seg := range []string{
		obs.SegIngestQueueWait, obs.SegShardMailbox, obs.SegWindowApply, obs.SegLocalSearch,
		obs.SegDAGJoin, obs.SegDispatch, obs.SegHTTPFlush,
	} {
		hsnap, ok := m.Obs.Find(obs.SegmentHistogramName, seg)
		if !ok || hsnap.Count == 0 {
			t.Errorf("segment %q has no observations (found=%v)", seg, ok)
		}
	}
	if lag, ok := m.Obs.Find(obs.DetectLagHistogramName, ""); !ok || lag.Count == 0 {
		t.Errorf("detect_stream_lag has no observations (found=%v)", ok)
	}
	// Every delivered match must have contributed an arrival→flush journey
	// observation: the arrival stamp survived routing, the shard mailbox, the
	// core engine, dedup and fan-out.
	if jh, ok := m.Obs.Find(obs.JourneyHistogramName, ""); !ok || jh.Count == 0 {
		t.Errorf("detect_wall_journey has no observations (found=%v)", ok)
	} else if jh.Count < uint64(len(expected)) {
		t.Errorf("detect_wall_journey has %d observations, want >= %d (one per delivered match)", jh.Count, len(expected))
	}

	// The Prometheus exposition must parse and carry the segment family.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	series := make(map[string]bool, len(samples))
	for _, s := range samples {
		series[s.Name] = true
	}
	for _, want := range []string{
		"streamworks_up",
		"streamworks_server_edges_ingested_total",
		"streamworks_segment_latency_seconds_bucket",
		"streamworks_segment_latency_seconds_sum",
		"streamworks_segment_latency_seconds_count",
		"streamworks_detect_wall_journey_seconds_count",
	} {
		if !series[want] {
			t.Errorf("/metrics missing series %s", want)
		}
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
		t.Fatalf("match set diverges with observability on: got %d, want %d", len(got), len(expected))
	}
}

// TestHealthObsDisabled pins the negative self-description: a daemon built
// without observability reports obs_enabled=false (and still reports its Go
// version), and the prom endpoint carries no segment family.
func TestHealthObsDisabled(t *testing.T) {
	srv := server.New(server.Config{Shard: shard.Config{Shards: 2}})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()
	c := client.New(hs.URL)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.ObsEnabled {
		t.Fatalf("health obs_enabled = true without observability: %+v", h)
	}
	if h.GoVersion != runtime.Version() {
		t.Fatalf("health go_version = %q, want %q", h.GoVersion, runtime.Version())
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	for _, s := range samples {
		if strings.HasPrefix(s.Name, "streamworks_segment_latency") {
			t.Errorf("segment family exposed with obs off: %s", s.Series())
		}
	}
}
