package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

func fetchHealth(t *testing.T, base string) api.HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding health: %v", err)
	}
	return h
}

// flowEdges builds n host→host flow edges with globally unique IDs starting
// at firstID, in timestamp order.
func flowEdges(firstID, n int) []graph.StreamEdge {
	edges := make([]graph.StreamEdge, 0, n)
	for i := 0; i < n; i++ {
		ts := testBase.Add(time.Duration(i) * time.Millisecond)
		edges = append(edges, hostEdge(firstID+i, graph.VertexID(1+i%7), graph.VertexID(50+i%5), "flow", ts))
	}
	return edges
}

func TestHealthReportsDurabilityMode(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no-data-dir", Config{}, "off"},
		{"durable", Config{DataDir: t.TempDir(), FsyncPolicy: "off"}, "ok"},
		// An unopenable WAL (here: a bad fsync policy) degrades at birth
		// instead of refusing to serve.
		{"degraded", Config{DataDir: t.TempDir(), FsyncPolicy: "bogus"}, "degraded"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newTestServer(t, c.cfg)
			if h := fetchHealth(t, ts.URL); h.Durability != c.want {
				t.Errorf("durability = %q, want %q", h.Durability, c.want)
			}
		})
	}
}

func TestRequireDurabilityRefusesDegradedIngest(t *testing.T) {
	// Degraded from birth, and the operator asked for durable-or-nothing.
	_, ts := newTestServer(t, Config{
		DataDir:           t.TempDir(),
		FsyncPolicy:       "bogus",
		RequireDurability: true,
	})
	resp := postEdges(t, ts.URL, ndjsonBody(t, flowEdges(1, 8)), false)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without a Retry-After hint")
	}
	var ir api.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("decoding 503 body: %v", err)
	}
	if !strings.Contains(ir.Error, "durability") {
		t.Errorf("error = %q, want a durability refusal", ir.Error)
	}

	// Query registration is still allowed — only ingest is gated.
	reg := postDSL(t, ts.URL, query.Format(gen.SmurfQuery(10*time.Minute)))
	reg.Body.Close()
	if reg.StatusCode != http.StatusCreated {
		t.Errorf("register while degraded: HTTP %d, want 201", reg.StatusCode)
	}
}

func TestDegradedIngestContinuesByDefault(t *testing.T) {
	// Without RequireDurability, degraded durability is an operational signal
	// (healthz, metrics), not an outage: ingest keeps working in-memory.
	_, ts := newTestServer(t, Config{
		DataDir:     t.TempDir(),
		FsyncPolicy: "bogus",
	})
	resp := postEdges(t, ts.URL, ndjsonBody(t, flowEdges(1, 8)), true)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("degraded ingest: HTTP %d: %s, want 200", resp.StatusCode, body)
	}
	if h := fetchHealth(t, ts.URL); h.Durability != "degraded" {
		t.Errorf("durability = %q, want degraded", h.Durability)
	}
}

func TestIngestTimeoutLeavesBatchQueued(t *testing.T) {
	// A 1ns wait budget times out essentially every wait=1 request, but the
	// batches are already queued: the 503 says "still queued", and every edge
	// must land in the engine regardless.
	_, ts := newTestServer(t, Config{
		IngestTimeout: time.Nanosecond,
	})
	const batches, per = 8, 16
	timeouts := 0
	for b := 0; b < batches; b++ {
		resp := postEdges(t, ts.URL, ndjsonBody(t, flowEdges(1+b*per, per)), true)
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			var ir api.IngestResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				t.Fatalf("decoding timeout body: %v", err)
			}
			if !ir.Queued || ir.Accepted != per {
				t.Fatalf("timeout response = %+v, want queued with %d accepted", ir, per)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("timeout 503 without a Retry-After hint")
			}
			timeouts++
		default:
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, body)
		}
		resp.Body.Close()
	}
	if timeouts == 0 {
		t.Fatal("no wait=1 request timed out under a 1ns budget")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := fetchMetrics(t, ts.URL); m.Server.EdgesIngested == batches*per {
			break
		}
		if time.Now().After(deadline) {
			m := fetchMetrics(t, ts.URL)
			t.Fatalf("edges ingested = %d, want %d (timed-out batches must still drain)",
				m.Server.EdgesIngested, batches*per)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMetricsExposeWALCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{
		DataDir:     t.TempDir(),
		FsyncPolicy: "off",
	})
	postDSL(t, ts.URL, query.Format(gen.SmurfQuery(10*time.Minute))).Body.Close()
	postEdges(t, ts.URL, ndjsonBody(t, flowEdges(1, 32)), true).Body.Close()

	m := fetchMetrics(t, ts.URL)
	if m.WAL == nil {
		t.Fatal("/v1/metrics has no wal section on a durable daemon")
	}
	if m.WAL.Mode != "ok" {
		t.Errorf("wal mode = %q, want ok", m.WAL.Mode)
	}
	if m.WAL.Frames < 2 || m.WAL.Bytes == 0 {
		t.Errorf("wal counters = %d frames / %d bytes, want a registration and a batch logged", m.WAL.Frames, m.WAL.Bytes)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{"wal_degraded 0", "wal_frames_appended", "wal_bytes_appended"} {
		if !strings.Contains(string(prom), line) {
			t.Errorf("prom exposition missing %q", line)
		}
	}

	// A non-durable daemon exposes neither.
	_, plain := newTestServer(t, Config{})
	if m := fetchMetrics(t, plain.URL); m.WAL != nil {
		t.Error("/v1/metrics has a wal section without -data-dir")
	}
	resp, err = http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(prom), "wal_") {
		t.Error("prom exposition has wal_ series without -data-dir")
	}
}

func TestRestartRecoversQueryRegistry(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, FsyncPolicy: "off"}

	srv1 := New(cfg)
	ts1 := httptest.NewServer(srv1)
	dsl := query.Format(gen.SmurfQuery(10 * time.Minute))
	reg := postDSL(t, ts1.URL, dsl)
	reg.Body.Close()
	if reg.StatusCode != http.StatusCreated {
		t.Fatalf("register: HTTP %d", reg.StatusCode)
	}
	postEdges(t, ts1.URL, ndjsonBody(t, flowEdges(1, 16)), true).Body.Close()
	srv1.Close()
	ts1.Close()

	// The restarted serving tier must see the WAL-recovered registration in
	// its HTTP views, not just inside the engine.
	_, ts2 := newTestServer(t, cfg)
	resp, err := http.Get(ts2.URL + "/v1/queries")
	if err != nil {
		t.Fatalf("GET /v1/queries: %v", err)
	}
	var qs []api.QueryInfo
	if err := json.NewDecoder(resp.Body).Decode(&qs); err != nil {
		t.Fatalf("decoding listing: %v", err)
	}
	resp.Body.Close()
	if len(qs) != 1 || qs[0].Name != "smurf-ddos" {
		t.Fatalf("recovered listing = %+v, want [smurf-ddos]", qs)
	}

	resp, err = http.Get(ts2.URL + "/v1/queries/smurf-ddos")
	if err != nil {
		t.Fatalf("GET /v1/queries/smurf-ddos: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "query smurf-ddos") {
		t.Fatalf("recovered query fetch: HTTP %d: %s", resp.StatusCode, body)
	}

	// Filtered match subscriptions pass the known-query pre-check.
	req, _ := http.NewRequest(http.MethodGet, ts2.URL+"/v1/matches?query=smurf-ddos", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /v1/matches: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered subscription to recovered query: HTTP %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Re-registering the recovered name conflicts, same as before the restart.
	dup := postDSL(t, ts2.URL, dsl)
	dup.Body.Close()
	if dup.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register after restart: HTTP %d, want 409", dup.StatusCode)
	}
}
