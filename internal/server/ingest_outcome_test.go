package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/loader"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/wire"
)

// ingestLane is one way into the daemon: an endpoint and a body codec, and
// for a session of batches the sync frame that ends the body's batch. Every
// lane runs the same ingester, so every outcome row below must read the same
// on all four.
type ingestLane struct {
	name, path, contentType string
	synced                  bool
}

var ingestLanes = []ingestLane{
	{"edges-ndjson", "/v1/edges?wait=1", "application/x-ndjson", false},
	{"edges-binary", "/v1/edges?wait=1", wire.ContentTypeBinary, false},
	{"stream", "/v1/stream", wire.ContentTypeBinary, false},
	{"stream-batches", "/v1/stream?batch=1", wire.ContentTypeBinary, true},
}

func (l ingestLane) binary() bool { return l.contentType == wire.ContentTypeBinary }

// head is what a body of this lane starts with.
func (l ingestLane) head() []byte {
	if l.binary() {
		return wire.StreamMagic
	}
	return nil
}

func (l ingestLane) encode(t *testing.T, edges []graph.StreamEdge) []byte {
	t.Helper()
	var buf bytes.Buffer
	if !l.binary() {
		if err := loader.WriteJSONL(&buf, edges); err != nil {
			t.Fatalf("encoding edges: %v", err)
		}
		return buf.Bytes()
	}
	var out, scratch []byte
	for _, se := range edges {
		out, scratch = wire.AppendEdgeFrame(out, scratch, se)
	}
	return out
}

// corrupt is a record no decoder of this lane accepts: an edge frame whose
// CRC does not match, or a line that is not JSON.
func (l ingestLane) corrupt(t *testing.T) []byte {
	if !l.binary() {
		return []byte("{not an edge\n")
	}
	frame := l.encode(t, flowEdges(9000, 1))
	frame[4] ^= 0xff
	return frame
}

// liveIngest is one in-flight ingest request whose body the test writes a
// piece at a time: the handler runs against a recorder, reading the body
// from a pipe.
type liveIngest struct {
	t    *testing.T
	lane ingestLane
	body *io.PipeWriter
	// reading closes when the handler first reads the body: admission has
	// passed and the decode loop is running.
	reading chan struct{}
	done    chan struct{}
	rec     *httptest.ResponseRecorder
}

type signalReader struct {
	io.Reader
	once    sync.Once
	reading chan struct{}
}

func (r *signalReader) Read(p []byte) (int, error) {
	r.once.Do(func() { close(r.reading) })
	return r.Reader.Read(p)
}

func startIngest(t *testing.T, srv *Server, lane ingestLane) *liveIngest {
	t.Helper()
	pr, pw := io.Pipe()
	li := &liveIngest{t: t, lane: lane, body: pw, reading: make(chan struct{}), done: make(chan struct{}), rec: httptest.NewRecorder()}
	req := httptest.NewRequest(http.MethodPost, lane.path, &signalReader{Reader: pr, reading: li.reading})
	req.Header.Set("Content-Type", lane.contentType)
	go func() {
		defer close(li.done)
		srv.ServeHTTP(li.rec, req)
		pr.Close() // a handler that answered early stops reading: unblock the writer
	}()
	return li
}

// write returns once the handler's decoder has taken every byte, or the
// handler has answered and stopped reading.
func (li *liveIngest) write(p []byte) {
	li.t.Helper()
	if len(p) == 0 {
		return
	}
	if _, err := li.body.Write(p); err != nil && !errors.Is(err, io.ErrClosedPipe) {
		li.t.Fatalf("writing ingest body: %v", err)
	}
}

// finish ends the body — on a session of batches with a sync frame first,
// and a second sync after it, of an empty batch — and returns the handler's
// answer: a JSON response, or a session's first ack, the one to the sync or
// to the end of the body.
func (li *liveIngest) finish() (int, http.Header, api.IngestResponse) {
	li.t.Helper()
	if li.lane.synced {
		sync := wire.AppendFrame(nil, wire.FrameSync, nil)
		li.write(append(sync, sync...))
	}
	li.body.Close()
	select {
	case <-li.done:
	case <-time.After(10 * time.Second):
		li.t.Fatal("ingest handler did not answer")
	}
	if li.rec.Header().Get("Content-Type") != wire.ContentTypeBinary {
		var ir api.IngestResponse
		if err := json.Unmarshal(li.rec.Body.Bytes(), &ir); err != nil {
			li.t.Fatalf("decoding ingest response %q: %v", li.rec.Body.String(), err)
		}
		return li.rec.Code, li.rec.Header(), ir
	}
	acks := readAcks(li.t, li.rec.Body.Bytes())
	first := acks[0]
	empty := wire.Ack{Status: http.StatusOK}
	switch {
	case first.Status >= 300 && len(acks) != 1:
		li.t.Fatalf("the session went on after a refusal: %+v", acks)
	case first.Status < 300 && li.lane.synced && (len(acks) != 3 || acks[1] != empty || acks[2] != first):
		// The first sync answered the whole body, so the final ack's total
		// reads the same.
		li.t.Fatalf("acks %+v, want the sync's answer, the empty batch's and a final one with the same total", acks)
	}
	return first.Status, li.rec.Header(), api.IngestResponse{
		Accepted: first.Accepted, Queued: first.Queued, Error: first.Error,
	}
}

// readAcks decodes a session's response: the stream magic, then at least
// one ack frame and nothing else.
func readAcks(t *testing.T, body []byte) []wire.Ack {
	t.Helper()
	rd := wire.NewReader(bytes.NewReader(body))
	var acks []wire.Ack
	for {
		typ, payload, err := rd.Next()
		if errors.Is(err, io.EOF) && len(acks) > 0 {
			return acks
		}
		if err != nil || typ != wire.FrameAck {
			t.Fatalf("session response %q: frame type %d, %v", body, typ, err)
		}
		ack, err := wire.DecodeAck(payload)
		if err != nil {
			t.Fatalf("decoding ack: %v", err)
		}
		acks = append(acks, ack)
	}
}

func wantIngest(t *testing.T, code int, ir api.IngestResponse, wantCode, wantAccepted int) {
	t.Helper()
	if code != wantCode || ir.Accepted != wantAccepted {
		t.Fatalf("HTTP %d %+v, want HTTP %d with %d accepted", code, ir, wantCode, wantAccepted)
	}
	if (code >= 300) != (ir.Error != "") {
		t.Fatalf("HTTP %d with error %q", code, ir.Error)
	}
}

// TestIngestOutcomes is the ingest contract as a table: each outcome an
// ingest request can meet, driven over both /v1/edges codecs, a /v1/stream
// session and a session of batches whose sync closes the body's batch,
// answers the same status with the same accounting — plus the two rows where
// a batch and a stream differ by design.
func TestIngestOutcomes(t *testing.T) {
	for _, lane := range ingestLanes {
		serve := func(t *testing.T, cfg Config) *Server {
			cfg.Shard = shard.Config{Shards: 2}
			srv := New(cfg)
			t.Cleanup(srv.Close)
			return srv
		}

		t.Run(lane.name+"/accepted", func(t *testing.T) {
			srv := serve(t, Config{})
			li := startIngest(t, srv, lane)
			li.write(lane.head())
			li.write(lane.encode(t, flowEdges(1, 300)))
			code, _, ir := li.finish()
			wantIngest(t, code, ir, http.StatusOK, 300)
			if got := srv.run.edgesIngested.Value(); got != 300 {
				t.Fatalf("edges ingested = %d, want 300", got)
			}
		})

		t.Run(lane.name+"/queue-full-on-first-chunk", func(t *testing.T) {
			srv := serve(t, Config{QueueDepth: 1})
			release := pinRunner(t, srv)
			defer release()
			li := startIngest(t, srv, lane)
			li.write(lane.head())
			<-li.reading // admitted against an empty queue …
			srv.run.batches <- ingestBatch{}
			li.write(lane.encode(t, flowEdges(1, 5))) // … which is full when the first chunk arrives
			code, hdr, ir := li.finish()
			wantIngest(t, code, ir, http.StatusTooManyRequests, 0)
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			if got := srv.batchesRejected.Value(); got != 1 {
				t.Fatalf("batches rejected = %d, want 1", got)
			}
		})

		t.Run(lane.name+"/draining-nothing-accepted", func(t *testing.T) {
			srv := serve(t, Config{})
			li := startIngest(t, srv, lane)
			li.write(lane.head())
			<-li.reading
			srv.Close()
			li.write(lane.encode(t, flowEdges(1, 5)))
			code, _, ir := li.finish()
			wantIngest(t, code, ir, http.StatusServiceUnavailable, 0)
			if ir.Queued {
				t.Fatal("nothing was queued, yet Queued is set")
			}
		})

		t.Run(lane.name+"/draining-after-first-chunk", func(t *testing.T) {
			srv := serve(t, Config{})
			li := startIngest(t, srv, lane)
			li.write(lane.head())
			li.write(lane.encode(t, flowEdges(1, minIngestChunk))) // a full chunk: enqueued at once
			waitFor(t, 5*time.Second, func() bool { return srv.run.edgesIngested.Value() == minIngestChunk })
			srv.Close()
			li.write(lane.encode(t, flowEdges(1000, 5)))
			code, _, ir := li.finish()
			wantIngest(t, code, ir, http.StatusServiceUnavailable, minIngestChunk)
			if !ir.Queued {
				t.Fatal("the first chunk was queued, yet Queued is unset")
			}
		})

		t.Run(lane.name+"/corrupt-mid-body", func(t *testing.T) {
			srv := serve(t, Config{})
			li := startIngest(t, srv, lane)
			li.write(lane.head())
			li.write(lane.encode(t, flowEdges(1, 7)))
			li.write(lane.corrupt(t))
			li.write(lane.encode(t, flowEdges(100, 3))) // never decoded
			code, _, ir := li.finish()
			wantIngest(t, code, ir, http.StatusBadRequest, 7)
			waitFor(t, 5*time.Second, func() bool { return srv.run.edgesIngested.Value() == 7 })
		})

		if lane.binary() {
			t.Run(lane.name+"/match-frame-in-body", func(t *testing.T) {
				srv := serve(t, Config{})
				li := startIngest(t, srv, lane)
				li.write(lane.head())
				li.write(lane.encode(t, flowEdges(1, 4)))
				frame, _ := wire.AppendMatchFrame(nil, nil, streamworks.Match{Query: "q", Signature: "s"})
				li.write(frame)
				code, _, ir := li.finish()
				wantIngest(t, code, ir, http.StatusBadRequest, 4)
			})
		}

		// By design: a batch is capped, a session is not.
		t.Run(lane.name+"/cap", func(t *testing.T) {
			srv := serve(t, Config{MaxBatchEdges: 8})
			li := startIngest(t, srv, lane)
			li.write(lane.head())
			li.write(lane.encode(t, flowEdges(1, 12)))
			code, _, ir := li.finish()
			if lane.path == "/v1/stream" {
				wantIngest(t, code, ir, http.StatusOK, 12)
			} else {
				wantIngest(t, code, ir, http.StatusRequestEntityTooLarge, 8)
			}
		})

		// By design: a session dispatches what it has before it blocks on the
		// socket, a batch waits for a full chunk or the end of the body.
		t.Run(lane.name+"/trickle", func(t *testing.T) {
			srv := serve(t, Config{})
			li := startIngest(t, srv, lane)
			li.write(lane.head())
			for i := 0; i < 3; i++ {
				li.write(lane.encode(t, flowEdges(1+i, 1)))
				if lane.path == "/v1/stream" {
					// Detected while the body is still open.
					waitFor(t, 5*time.Second, func() bool { return srv.run.edgesIngested.Value() == uint64(i+1) })
				}
			}
			code, _, ir := li.finish()
			wantIngest(t, code, ir, http.StatusOK, 3)
			wantChunks := uint64(1)
			if lane.path == "/v1/stream" {
				wantChunks = 3
			}
			if got := srv.run.batchesIngested.Value(); got != wantChunks {
				t.Fatalf("chunks dispatched = %d, want %d", got, wantChunks)
			}
		})
	}
}

// TestNDJSONUnknownAttrKindRejected: an NDJSON attribute value of a kind the
// binary encoding has no form for is refused, naming its key, and nothing
// of the body is accepted; taken, it would be dropped by the write-ahead
// log, so a predicate on it would match before a restart and not after.
func TestNDJSONUnknownAttrKindRejected(t *testing.T) {
	const bad = `{"id":1,"source":1,"target":2,"type":"flow","ts":5,"attrs":{"x":{"kind":"integer","i":7}}}` + "\n"
	for _, before := range []int{0, 3} {
		t.Run(fmt.Sprintf("after-%d-edges", before), func(t *testing.T) {
			srv, ts := newTestServer(t, Config{})
			body := ndjsonBody(t, flowEdges(100, before))
			body.WriteString(bad)
			resp := postEdges(t, ts.URL, body, true)
			defer resp.Body.Close()
			var ir api.IngestResponse
			if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
				t.Fatalf("decoding ingest response: %v", err)
			}
			wantIngest(t, resp.StatusCode, ir, http.StatusBadRequest, before)
			if want := fmt.Sprintf(`line %d: attrs key "x"`, before+1); !strings.Contains(ir.Error, want) {
				t.Fatalf("error %q does not name the line and the key (%s)", ir.Error, want)
			}
			waitFor(t, 5*time.Second, func() bool { return srv.run.edgesIngested.Value() == uint64(before) })
		})
	}
}

// TestControlRequestsDuringSaturatedIngestAndClose is the contract the
// runner's control channel used to provide, now that handlers call the
// engine directly: with the ingest queue saturated (depth 1, feeders
// hammering it) registrations, unregistrations, advances and metrics reads
// all complete, every one of them answers 2xx — or 503 once Close has begun —
// and neither they nor a concurrent Close hang.
func TestControlRequestsDuringSaturatedIngestAndClose(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shard: shard.Config{Shards: 2}, QueueDepth: 1})

	var (
		wg       sync.WaitGroup
		rounds   atomic.Int64 // control round trips completed before Close
		accepted atomic.Int64 // ingest requests that got in
	)
	// do issues one request and reports whether the server has drained.
	do := func(method, path, body string, want ...int) (drained bool) {
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return true
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			return true
		}
		for _, w := range want {
			if resp.StatusCode == w {
				return false
			}
		}
		t.Errorf("%s %s: HTTP %d, want one of %v or 503", method, path, resp.StatusCode, want)
		return true
	}

	for f := 0; f < 3; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; ; i++ {
				body := ndjsonBody(t, flowEdges(1+(f*1_000_000)+i*64, 64)).String()
				// 429 is the saturated queue shedding: expected, not a failure.
				if do(http.MethodPost, "/v1/edges", body, http.StatusAccepted, http.StatusTooManyRequests) {
					return
				}
				accepted.Add(1)
			}
		}(f)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				name := fmt.Sprintf("smurf-%d-%d", c, i)
				dsl := strings.Replace(query.Format(gen.SmurfQuery(time.Minute)), "smurf-ddos", name, 1)
				if do(http.MethodPost, "/v1/queries", dsl, http.StatusCreated) ||
					do(http.MethodGet, "/v1/metrics", "", http.StatusOK) ||
					do(http.MethodPost, "/v1/advance", fmt.Sprintf(`{"ts":%d}`, int64(testBase)+int64(i)), http.StatusNoContent) ||
					do(http.MethodGet, "/v1/queries", "", http.StatusOK) ||
					do(http.MethodDelete, "/v1/queries/"+name, "", http.StatusNoContent) {
					return
				}
				rounds.Add(1)
			}
		}(c)
	}

	// Close lands mid-traffic: after the queue has shed at least one batch
	// and every kind of request has made it through several times.
	waitFor(t, 20*time.Second, func() bool {
		return rounds.Load() >= 12 && accepted.Load() >= 12 && srv.batchesRejected.Value() > 0
	})
	finished := make(chan struct{})
	go func() {
		srv.Close()
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("Close or a request in flight hung")
	}
}

// stepClock is an obs.Clock that moves only when the test steps it.
type stepClock struct{ ns atomic.Int64 }

func (c *stepClock) Now() int64 { return c.ns.Load() }

// TestSessionChunksCarryTheirOwnArrival: a session's queue wait starts at
// each chunk's first decoded edge, not when the session opened. Batch 1 goes
// out, the clock steps 10 s, batch 2 goes out: batch 2's observed waits are
// what its own decode and queueing took (nothing, on a clock that stands
// still), not the 10 s the session has been open.
func TestSessionChunksCarryTheirOwnArrival(t *testing.T) {
	clock := &stepClock{}
	clock.ns.Store(int64(time.Hour))
	srv, ts := newTestServer(t, Config{Shard: shard.Config{Shards: 1, Engine: core.Config{
		Obs: obs.Config{Enabled: true, Clock: clock},
	}}})
	es, err := client.New(ts.URL).OpenEdgeStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { es.Close() }) // before the server's: it waits for open requests
	waits := func() obs.HistogramSnapshot {
		h, _ := srv.reg.Snapshot().Find(obs.SegmentHistogramName, obs.SegIngestQueueWait)
		return h
	}
	sent := 0
	send := func(n int) {
		t.Helper()
		if err := es.Send(flowEdges(1+sent, n)); err != nil {
			t.Fatal(err)
		}
		sent += n
		waitFor(t, 5*time.Second, func() bool { return srv.run.edgesIngested.Value() == uint64(sent) })
	}

	send(10)
	before := waits()
	clock.ns.Add(int64(10 * time.Second))
	send(10)
	after := waits()
	if n := after.Count - before.Count; n != 10 {
		t.Fatalf("%d waits observed for batch 2, want 10", n)
	}
	if mean := time.Duration((after.Sum - before.Sum) / 10); mean >= 10*time.Second {
		t.Fatalf("batch 2 waited %v per edge: it carries the session's start", mean)
	}
	if res, err := es.Close(); err != nil || res.Accepted != sent {
		t.Fatalf("Close = %+v, %v; want %d accepted", res, err, sent)
	}
}

// TestDrainEndsAnIdleSession: Close ends a session that is waiting on its
// socket between batches: the connection is freed at once, so the test
// server's Close, which waits for open requests, returns, and the next batch
// gets the drain's 503, retryable, as a POST would.
func TestDrainEndsAnIdleSession(t *testing.T) {
	srv := New(Config{Shard: shard.Config{Shards: 2}})
	ts := httptest.NewServer(srv)
	ctx := context.Background()
	es, err := client.New(ts.URL).OpenBatchStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := es.SendBatch(ctx, flowEdges(1, 10)); err != nil || res.Accepted != 10 {
		t.Fatalf("SendBatch = %+v, %v; want 10 accepted", res, err)
	}
	srv.Close()
	closed := make(chan struct{})
	go func() {
		ts.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		es.Close() // unblocks ts.Close
		t.Fatal("the idle session's request outlived the drain")
	}
	_, err = es.SendBatch(ctx, flowEdges(100, 10))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Message != "draining" || !client.IsRetryable(err) {
		t.Fatalf("SendBatch after the drain: %v, want the drain's 503", err)
	}
	if _, err := es.Close(); !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("Close after the drain: %v, want the drain's 503", err)
	}
}
