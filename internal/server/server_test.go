package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/loader"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/wire"
)

var testBase = graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))

// hostEdge builds a fully-described stream edge (endpoint metadata on every
// edge).
func hostEdge(id int, src, dst graph.VertexID, typ string, ts graph.Timestamp) graph.StreamEdge {
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

// smurfPairs builds n request/reply pairs through one amplifier, each reply
// aimed at a distinct victim, in non-decreasing timestamp order. Every
// (request, reply) combination within the window completes the smurf
// pattern, so n pairs yield n² matches.
func smurfPairs(n int) []graph.StreamEdge {
	edges := make([]graph.StreamEdge, 0, 2*n)
	id := 1
	for i := 0; i < n; i++ {
		ts := testBase.Add(time.Duration(2*i) * time.Millisecond)
		edges = append(edges, hostEdge(id, 1, 2, gen.EdgeICMPReq, ts))
		id++
		edges = append(edges, hostEdge(id, 2, graph.VertexID(100+i), gen.EdgeICMPReply, ts.Add(time.Millisecond)))
		id++
	}
	return edges
}

func ndjsonBody(t *testing.T, edges []graph.StreamEdge) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := loader.WriteJSONL(&buf, edges); err != nil {
		t.Fatalf("encoding edges: %v", err)
	}
	return &buf
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, ts
}

func postDSL(t *testing.T, base, dsl string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/queries", "text/plain", strings.NewReader(dsl))
	if err != nil {
		t.Fatalf("POST /v1/queries: %v", err)
	}
	return resp
}

func postEdges(t *testing.T, base string, body io.Reader, wait bool) *http.Response {
	t.Helper()
	url := base + "/v1/edges"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatalf("POST /v1/edges: %v", err)
	}
	return resp
}

func fetchMetrics(t *testing.T, base string) api.MetricsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	var m api.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	return m
}

func TestRegisterLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	dsl := query.Format(gen.SmurfQuery(10 * time.Minute))
	resp := postDSL(t, ts.URL, dsl)
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: HTTP %d: %s", resp.StatusCode, body)
	}
	var reg api.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatalf("decoding register response: %v", err)
	}
	resp.Body.Close()
	if reg.Name != "smurf-ddos" || reg.Vertices != 3 || reg.Edges != 2 || reg.Strategy != "selective" {
		t.Fatalf("register response = %+v", reg)
	}

	// Duplicate names conflict.
	resp = postDSL(t, ts.URL, dsl)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: HTTP %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Unnamed and malformed queries are rejected up front.
	for _, bad := range []string{"vertex a : Host\nvertex b : Host\nedge a -[x]-> b\n", "edge oops\n"} {
		resp = postDSL(t, ts.URL, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad query %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The listing and the DSL echo both know the query.
	lresp, err := http.Get(ts.URL + "/v1/queries")
	if err != nil {
		t.Fatalf("GET /v1/queries: %v", err)
	}
	var infos []api.QueryInfo
	if err := json.NewDecoder(lresp.Body).Decode(&infos); err != nil {
		t.Fatalf("decoding listing: %v", err)
	}
	lresp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "smurf-ddos" {
		t.Fatalf("listing = %+v", infos)
	}
	dresp, err := http.Get(ts.URL + "/v1/queries/smurf-ddos")
	if err != nil {
		t.Fatalf("GET query DSL: %v", err)
	}
	echoed, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if _, perr := query.ParseString(string(echoed)); perr != nil {
		t.Fatalf("echoed DSL does not re-parse: %v\n%s", perr, echoed)
	}

	// Registrations metric is the active count: it drops on unregister.
	if m := fetchMetrics(t, ts.URL); m.Engine.Registrations != 1 {
		t.Fatalf("Registrations = %d, want 1", m.Engine.Registrations)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/queries/smurf-ddos", nil)
	uresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE query: %v", err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusNoContent {
		t.Fatalf("unregister: HTTP %d, want 204", uresp.StatusCode)
	}
	if m := fetchMetrics(t, ts.URL); m.Engine.Registrations != 0 {
		t.Fatalf("Registrations after unregister = %d, want 0", m.Engine.Registrations)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/queries/nope", nil)
	uresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE unknown query: %v", err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unregister unknown: HTTP %d, want 404", uresp.StatusCode)
	}
}

// TestIngestWorkloadNDJSON proves the gen → wire → server path shares one
// format: a Workload.NDJSON dump posts straight into /v1/edges.
func TestIngestWorkloadNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cfg := gen.NetFlowConfig{
		Hosts: 50, Servers: 5, Edges: 400,
		Start: testBase, MeanGap: time.Millisecond, ContactSkew: 1.4, Seed: 3,
	}
	w := gen.NetFlowWorkload(cfg, time.Minute)
	var buf bytes.Buffer
	if err := w.NDJSON(&buf); err != nil {
		t.Fatalf("workload NDJSON: %v", err)
	}
	resp := postEdges(t, ts.URL, &buf, true)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, body)
	}
	var ir api.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("decoding ingest response: %v", err)
	}
	if ir.Accepted != len(w.Edges) {
		t.Fatalf("Accepted = %d, want %d", ir.Accepted, len(w.Edges))
	}
	if m := fetchMetrics(t, ts.URL); m.Server.EdgesIngested != uint64(len(w.Edges)) {
		t.Fatalf("EdgesIngested = %d, want %d", m.Server.EdgesIngested, len(w.Edges))
	}
}

// pinRunner parks the runner so nothing drains the ingest queue: a sentinel
// whose reply channel is unbuffered holds it inside process until release is
// called. It returns once the runner has dequeued the sentinel, so the queue
// is empty and stays exactly as full as the test makes it.
func pinRunner(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	pin := make(chan ingestJob)
	srv.run.batches <- ingestBatch{job: &ingestJob{}, done: pin}
	waitFor(t, time.Second, func() bool { return len(srv.run.batches) == 0 })
	return func() { <-pin }
}

// TestIngestBackpressure429 fills the bounded ingest queue while the runner
// is pinned and checks overload is shed with 429 instead of blocking the
// request.
func TestIngestBackpressure429(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueDepth: 1})

	release := pinRunner(t, srv)

	edges := smurfPairs(2)
	resp := postEdges(t, ts.URL, ndjsonBody(t, edges), false)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: HTTP %d, want 202", resp.StatusCode)
	}
	resp = postEdges(t, ts.URL, ndjsonBody(t, edges), false)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 response missing Retry-After")
	}
	resp.Body.Close()
	release()

	// After the runner resumes, ingest flows again and the shed batch was
	// counted.
	resp = postEdges(t, ts.URL, ndjsonBody(t, edges), true)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release batch: HTTP %d, want 200", resp.StatusCode)
	}
	if m := fetchMetrics(t, ts.URL); m.Server.BatchesRejected != 1 {
		t.Fatalf("BatchesRejected = %d, want 1", m.Server.BatchesRejected)
	}
}

// stuckWriter is a streaming ResponseWriter whose Write blocks until
// released — a subscriber that stopped consuming entirely.
type stuckWriter struct {
	hdr     http.Header
	release chan struct{}
}

func (w *stuckWriter) Header() http.Header { return w.hdr }
func (w *stuckWriter) WriteHeader(int)     {}
func (w *stuckWriter) Flush()              {}
func (w *stuckWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

// TestSlowSubscriberEvictedNotBlocking is the acceptance scenario: a match
// subscriber that never consumes must be evicted while ingest keeps flowing.
func TestSlowSubscriberEvictedNotBlocking(t *testing.T) {
	srv, ts := newTestServer(t, Config{SubscriberBuffer: 1})

	resp := postDSL(t, ts.URL, query.Format(gen.SmurfQuery(10*time.Minute)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}

	// Attach a subscriber whose writes never complete.
	sw := &stuckWriter{hdr: make(http.Header), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/v1/matches", nil)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		srv.handleMatches(sw, req)
	}()
	waitFor(t, time.Second, func() bool { return srv.hub.subscribers.Value() == 1 })

	// Ingest enough pairs for dozens of matches; wait=1 proves the whole
	// batch processed while the subscriber was stuck.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postEdges(t, ts.URL, ndjsonBody(t, smurfPairs(8)), true)
		resp.Body.Close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest stalled behind a stuck subscriber")
	}

	// The hub must have dropped the subscriber rather than waiting on it.
	waitFor(t, 5*time.Second, func() bool { return srv.hub.evicted.Value() >= 1 })
	close(sw.release)
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("evicted subscriber's handler did not finish")
	}
	if n := srv.hub.subscribers.Value(); n != 0 {
		t.Fatalf("subscribers after eviction = %d, want 0", n)
	}
}

// fakeEngineSub is a stub streamworks.Subscription recording teardown.
type fakeEngineSub struct {
	done   chan struct{}
	closed atomic.Bool
}

func (f *fakeEngineSub) Done() <-chan struct{} { return f.done }
func (f *fakeEngineSub) Err() error            { return nil }
func (f *fakeEngineSub) Close() error          { f.closed.Store(true); return nil }

// TestHubEviction pins down the eviction mechanics at the hub level, with
// the engine stubbed out: the hub registers a per-query sink per subscriber
// and evicts a subscriber whose bounded buffer overflows, closing its
// engine-side subscription too.
func TestHubEviction(t *testing.T) {
	var (
		sinks   = map[string]streamworks.MatchSink{}
		engSubs = map[string]*fakeEngineSub{}
	)
	h := newHub(2, func(q string, sink streamworks.MatchSink) (streamworks.Subscription, error) {
		es := &fakeEngineSub{done: make(chan struct{})}
		sinks[q], engSubs[q] = sink, es
		return es, nil
	}, obs.NewRegistry())
	sub, err := h.register("")
	if err != nil {
		t.Fatalf("register on fresh hub failed: %v", err)
	}
	if sub.sub != engSubs[""] {
		t.Fatal("subscriber not wired to its engine subscription")
	}
	for i := 0; i < 3; i++ {
		sinks[""].OnMatch(streamworks.Match{Query: "q"})
	}
	if got := h.evicted.Value(); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	if got := h.delivered.Value(); got != 2 {
		t.Fatalf("delivered = %d, want 2", got)
	}
	if !sub.evicted.Load() {
		t.Fatal("subscriber not flagged as evicted")
	}
	if !engSubs[""].closed.Load() {
		t.Fatal("eviction did not close the engine-side subscription")
	}
	// Buffered events drain, then the closed channel reports end of stream.
	for i := 0; i < 2; i++ {
		if _, open := <-sub.ch; !open {
			t.Fatalf("event %d: channel closed early", i)
		}
	}
	if _, open := <-sub.ch; open {
		t.Fatal("channel still open after eviction")
	}
	h.unsubscribe(sub) // idempotent after eviction
	// Deliveries racing an eviction are dropped, not sent on a closed
	// channel.
	sinks[""].OnMatch(streamworks.Match{Query: "q"})
	if got := h.delivered.Value(); got != 2 {
		t.Fatalf("delivered after eviction = %d, want 2", got)
	}
	// The hub passes the query filter through to the engine, which is the
	// component that filters; a second subscriber registers under its name.
	if _, err := h.register("other"); err != nil {
		t.Fatalf("filtered register: %v", err)
	}
	if _, ok := sinks["other"]; !ok {
		t.Fatal("query filter not passed to the engine subscription")
	}
	// After close, new registrations are refused.
	h.close()
	if _, err := h.register(""); err == nil {
		t.Fatal("register after close succeeded")
	}
}

// TestEventStreamAcceptGetsNDJSON: there is one text match format. A client
// asking for server-sent events is streamed NDJSON — one JSON match per line,
// no event framing.
func TestEventStreamAcceptGetsNDJSON(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp := postDSL(t, ts.URL, query.Format(gen.SmurfQuery(10*time.Minute)))
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/matches?query=smurf-ddos", nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	readDone, streamed := readAll(sresp.Body)

	postEdges(t, ts.URL, ndjsonBody(t, smurfPairs(2)), true).Body.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.hub.delivered.Value() >= 1 })
	srv.Close() // drain ends the stream
	<-readDone
	text := streamed()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for _, line := range lines {
		var m streamworks.Match
		if err := json.Unmarshal([]byte(line), &m); err != nil || m.Query != "smurf-ddos" {
			t.Fatalf("line %q is not an NDJSON smurf-ddos match (%v):\n%s", line, err, text)
		}
	}
	if len(lines) != 4 {
		t.Fatalf("%d matches streamed, want the 4 of two smurf pairs:\n%s", len(lines), text)
	}
}

// TestBrokenSubscriberFreesItsSlot: a binary subscriber whose connection
// breaks gives its slot back, and the in-memory server redelivers nothing
// across the break, so the next subscription carries exactly the matches of
// the edges ingested after it, once each.
func TestBrokenSubscriberFreesItsSlot(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp := postDSL(t, ts.URL, query.Format(gen.SmurfQuery(10*time.Minute)))
	resp.Body.Close()

	breq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/matches", nil)
	breq.Header.Set("Accept", wire.ContentTypeBinary)
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatalf("binary subscribe: %v", err)
	}
	defer bresp.Body.Close()
	waitFor(t, time.Second, func() bool { return srv.hub.subscribers.Value() == 1 })
	postEdges(t, ts.URL, ndjsonBody(t, smurfPairs(2)), true).Body.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.hub.delivered.Value() == 4 })
	ts.CloseClientConnections()
	waitFor(t, 5*time.Second, func() bool { return srv.hub.subscribers.Value() == 0 })

	sresp, err := http.Get(ts.URL + "/v1/matches?query=smurf-ddos")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sresp.Body.Close()
	readDone, streamed := readAll(sresp.Body)

	// The second wave runs through another amplifier, so its matches are
	// exactly its own four.
	wave2 := smurfPairs(2)
	for i := range wave2 {
		e := &wave2[i].Edge
		e.ID += 100
		e.Timestamp = e.Timestamp.Add(time.Second)
		if e.Source == 2 {
			e.Source = 3
		} else {
			e.Target = 3
		}
	}
	postEdges(t, ts.URL, ndjsonBody(t, wave2), true).Body.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.hub.delivered.Value() >= 5 })
	srv.Close() // drain ends the stream
	<-readDone
	text := streamed()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	sigs := make(map[string]bool, len(lines))
	for _, line := range lines {
		var m streamworks.Match
		if err := json.Unmarshal([]byte(line), &m); err != nil || m.Query != "smurf-ddos" {
			t.Fatalf("line %q is not an NDJSON smurf-ddos match (%v):\n%s", line, err, text)
		}
		sigs[m.Signature] = true
	}
	if len(lines) != 4 || len(sigs) != 4 {
		t.Fatalf("%d matches streamed (%d distinct), want the 4 of the second wave's two smurf pairs:\n%s", len(lines), len(sigs), text)
	}
}

// readAll copies r on its own goroutine until it ends. done closes when it
// has; text returns what has arrived so far.
func readAll(r io.Reader) (done <-chan struct{}, text func() string) {
	var (
		mu  sync.Mutex
		buf bytes.Buffer
	)
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		p := make([]byte, 4096)
		for {
			n, err := r.Read(p)
			mu.Lock()
			buf.Write(p[:n])
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return ch, func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
}

// TestAdvanceExpiresWindows drives stream time forward over HTTP and checks
// the engine expires its window.
func TestAdvanceExpiresWindows(t *testing.T) {
	cfg := Config{Shard: shard.Config{Engine: core.Config{Retention: time.Minute}}}
	_, ts := newTestServer(t, cfg)

	postEdges(t, ts.URL, ndjsonBody(t, smurfPairs(4)), true).Body.Close()
	if m := fetchMetrics(t, ts.URL); m.Engine.LiveEdges == 0 {
		t.Fatal("no live edges after ingest")
	}
	body, _ := json.Marshal(api.AdvanceRequest{TS: int64(testBase.Add(10 * time.Minute))})
	aresp, err := http.Post(ts.URL+"/v1/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/advance: %v", err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusNoContent {
		t.Fatalf("advance: HTTP %d, want 204", aresp.StatusCode)
	}
	if m := fetchMetrics(t, ts.URL); m.Engine.LiveEdges != 0 {
		t.Fatalf("LiveEdges after advance = %d, want 0", m.Engine.LiveEdges)
	}
}

// TestGracefulDrain checks Close refuses new work with 503 on every
// endpoint while in-flight subscribers end cleanly.
func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Close()

	checks := []struct {
		method, path string
		body         io.Reader
	}{
		{http.MethodGet, "/healthz", nil},
		{http.MethodPost, "/v1/edges", strings.NewReader("")},
		{http.MethodPost, "/v1/queries", strings.NewReader(query.Format(gen.SmurfQuery(time.Minute)))},
		{http.MethodGet, "/v1/matches", nil},
		{http.MethodGet, "/v1/metrics", nil},
		{http.MethodPost, "/v1/advance", strings.NewReader(`{"ts":1}`)},
	}
	for _, c := range checks {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, c.body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s after Close: HTTP %d, want 503", c.method, c.path, resp.StatusCode)
		}
	}
	// Close is idempotent.
	srv.Close()
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not met within %s", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
