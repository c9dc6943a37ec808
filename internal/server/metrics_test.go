package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the metrics golden file from the current server")

// goldenWorkload is a small deterministic netflow run.
func goldenWorkload() gen.Workload {
	return gen.NetFlowWorkload(gen.NetFlowConfig{
		Hosts: 250, Servers: 25, Edges: 3000, Start: testBase,
		MeanGap: time.Millisecond, ContactSkew: 1.4, Seed: 42,
	}, time.Minute)
}

// ingestWaiting registers w's queries on the server behind base and posts its
// edges in requests of at most minIngestChunk edges with ?wait=1, so every
// request is one chunk whatever the queue depth.
func ingestWaiting(t *testing.T, base string, w gen.Workload) {
	t.Helper()
	for _, q := range w.Queries {
		resp := postDSL(t, base, query.Format(q))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("registering %s: HTTP %d", q.Name(), resp.StatusCode)
		}
	}
	for i := 0; i < len(w.Edges); i += minIngestChunk {
		resp := postEdges(t, base, ndjsonBody(t, w.Edges[i:min(i+minIngestChunk, len(w.Edges))]), true)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest at %d: HTTP %d", i, resp.StatusCode)
		}
	}
}

// TestServerMetricsMatchGolden pins the serving tier's counters after a
// deterministic run of waiting ingest.
func TestServerMetricsMatchGolden(t *testing.T) {
	w := goldenWorkload()
	_, ts := newTestServer(t, Config{Shard: shard.Config{Engine: w.Engine}})
	ingestWaiting(t, ts.URL, w)
	out, err := json.MarshalIndent(fetchMetrics(t, ts.URL).Server, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.Join("testdata", "server_metrics_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("server metrics moved from %s; got:\n%s", path, out)
	}
}

// scrape fetches GET /metrics with client and returns every sample by series.
func scrape(t *testing.T, client *http.Client, base string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Series()] = s.Value
	}
	return out
}

// TestLateEdgesCountedAtTheFrontEnd: an edge behind the watermark, though
// within twice the slack of the newest time, is dropped where edges enter
// and counted once, in Metrics and on /metrics, whatever shard count the
// daemon is configured with.
func TestLateEdgesCountedAtTheFrontEnd(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shard.Config{Shards: shards}
			cfg.Engine.Retention, cfg.Engine.Slack = time.Minute, time.Second
			srv, ts := newTestServer(t, Config{Shard: cfg})
			edges := []graph.StreamEdge{
				hostEdge(1, 1, 2, "flow", testBase.Add(10*time.Second)),
				hostEdge(2, 3, 4, "flow", testBase.Add(8500*time.Millisecond)),
			}
			resp := postEdges(t, ts.URL, ndjsonBody(t, edges), true)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: HTTP %d", resp.StatusCode)
			}
			m, err := srv.Engine().Metrics(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if m.EdgesDropped != 1 {
				t.Errorf("Metrics: %d edges dropped, want 1", m.EdgesDropped)
			}
			if got := scrape(t, http.DefaultClient, ts.URL)["streamworks_edges_dropped_total"]; got != 1 {
				t.Errorf("/metrics: streamworks_edges_dropped_total %v, want 1", got)
			}
		})
	}
}

// TestPromScrapeNeverWaits: with the runner pinned and the engine parked in
// a subscriber — a saturated daemon whose engine cannot answer a round trip
// — GET /metrics still answers at once, and carries the engine's counts.
func TestPromScrapeNeverWaits(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp := postDSL(t, ts.URL, "query flows\nvertex a : Host\nvertex b : Host\nedge a -[flow]-> b\n")
	resp.Body.Close()
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sub, err := srv.Engine().Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	unpin := pinRunner(t, srv)
	defer unpin()
	ingested := make(chan error, 1)
	defer func() {
		close(release)
		if err := <-ingested; err != nil {
			t.Errorf("ProcessBatch: %v", err)
		}
	}()
	// Every edge is a match: the first delivery parks the batch.
	go func() { ingested <- srv.Engine().ProcessBatch(context.Background(), flowEdges(1, 8000)) }()
	<-parked
	// Stalled: no edge processed for a while, and the batch still blocked.
	for last, still := uint64(0), 0; still < 10; time.Sleep(20 * time.Millisecond) {
		n := srv.Engine().ObsSnapshot().Counter("edges_processed", "")
		if still++; n != last || len(ingested) > 0 {
			last, still = n, 0
		}
	}

	got := scrape(t, &http.Client{Timeout: time.Second}, ts.URL)
	for _, series := range []string{"streamworks_edges_processed_total", "streamworks_matches_emitted_total"} {
		if _, ok := got[series]; !ok {
			t.Errorf("scrape of a saturated daemon lacks %s", series)
		}
	}
	if got["streamworks_edges_processed_total"] == 0 {
		t.Errorf("no edge processed before the engine stalled")
	}
}

// TestMetricsRenderingsAgree: GET /v1/metrics and GET /metrics are two
// renderings of the same registries. Every numeric field of the engine,
// server and WAL sections — and the per-query and DAG counts inside the
// engine's — has its series, and a scrape taken after the JSON read holds
// the same value, with observability off and on.
func TestMetricsRenderingsAgree(t *testing.T) {
	engineSeries := map[string]string{
		"EdgesProcessed": "streamworks_edges_processed_total",
		"EdgesDropped":   "streamworks_edges_dropped_total",
		"MatchesEmitted": "streamworks_matches_emitted_total",
		"LocalSearches":  "streamworks_mqo_local_searches_total",
		"PartialMatches": "streamworks_partials_stored",
		"PartialsPruned": "streamworks_partials_pruned_total",
		"PruneRuns":      "streamworks_prune_runs_total",
		"Registrations":  "streamworks_registrations",
		"LiveEdges":      "streamworks_live_edges",
		"LiveVertices":   "streamworks_live_vertices",
		"ExpiredEdges":   "streamworks_expired_edges",
	}
	dagSeries := map[string]string{
		"partial_matches": "streamworks_partials_stored",
		"local_searches":  "streamworks_mqo_local_searches_total",
		"shared_hits":     "streamworks_mqo_shared_hits_total",
	}
	querySeries := map[string]string{
		"Matches": "streamworks_query_matches_emitted_total",
	}
	// The server's and the WAL's series are their JSON names under the
	// tier's prefix, counters with Prometheus' _total suffix.
	gauges := map[string]bool{"subscribers": true, "ingest_queue_len": true, "ingest_queue_cap": true, "recovery_backlog": true}
	tierSeries := func(prefix, field string) string {
		if gauges[field] {
			return "streamworks_" + prefix + field
		}
		return "streamworks_" + prefix + field + "_total"
	}

	for _, obsOn := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("obs=%v/shards=%d", obsOn, shards), func(t *testing.T) {
				w := goldenWorkload()
				w.Engine.Obs.Enabled = obsOn
				srv, ts := newTestServer(t, Config{
					Shard:   shard.Config{Shards: shards, Engine: w.Engine},
					DataDir: t.TempDir(), FsyncPolicy: "off",
				})
				sub, err := srv.hub.register("")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.hub.unsubscribe(sub)
				ingestWaiting(t, ts.URL, w)
				if err := srv.Engine().Flush(); err != nil {
					t.Fatal(err)
				}

				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Engine map[string]any
					Server map[string]any
					WAL    map[string]any
				}
				err = json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				prom := scrape(t, http.DefaultClient, ts.URL)

				checked := 0
				agree := func(where, series string, v any) {
					t.Helper()
					want, ok := v.(float64)
					if !ok {
						return
					}
					checked++
					if got, ok := prom[series]; !ok || got != want {
						t.Errorf("%s = %v in /v1/metrics, %s = %v (present %v) in /metrics", where, want, series, got, ok)
					}
				}
				for field, v := range doc.Engine {
					if _, numeric := v.(float64); numeric && engineSeries[field] == "" {
						t.Errorf("engine.%s has no series", field)
					}
					agree("engine."+field, engineSeries[field], v)
				}
				dag := doc.Engine["MQO"].(map[string]any)
				for field, series := range dagSeries {
					agree("engine.MQO."+field, series, dag[field])
				}
				for _, q := range doc.Engine["Queries"].([]any) {
					q := q.(map[string]any)
					for field, series := range querySeries {
						agree(fmt.Sprintf("engine.Queries[%s].%s", q["Name"], field), fmt.Sprintf("%s{query=%q}", series, q["Name"]), q[field])
					}
				}
				for field, v := range doc.Server {
					agree("server."+field, tierSeries("server_", field), v)
				}
				for field, v := range doc.WAL {
					agree("wal."+field, tierSeries("wal_", field), v)
				}
				if doc.WAL["mode"] != "ok" || checked < 34 || prom["streamworks_matches_emitted_total"] == 0 || prom["streamworks_server_matches_delivered_total"] == 0 {
					t.Fatalf("%d fields compared; wal mode %v, %v matches, %v delivered", checked, doc.WAL["mode"],
						prom["streamworks_matches_emitted_total"], prom["streamworks_server_matches_delivered_total"])
				}
			})
		}
	}
}
