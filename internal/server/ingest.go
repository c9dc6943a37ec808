package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/loader"
	"github.com/streamworks/streamworks/internal/wire"
)

// Streaming ingest: the handler hands decoded chunks to the runner as the
// body decodes, instead of queue-then-drain. A match completed by an edge
// early in a large upload is detected (and flushed to subscribers) while
// the rest of the body is still on the wire. Chunk sizing adapts to queue
// depth — an idle queue favors small chunks so shards start immediately, a
// backed-up queue favors large ones so the per-chunk routing and WAL-frame
// overhead amortizes.
const (
	minIngestChunk = 256
	maxIngestChunk = 8192
	// streamFlushProbe is the buffered-byte threshold below which a probing
	// ingester flushes its partial chunk before blocking on the connection:
	// a trickling feeder gets per-edge dispatch, a saturating one gets full
	// chunks.
	streamFlushProbe = 16
)

// adaptiveChunk picks the next enqueue size from the current queue depth.
func (s *Server) adaptiveChunk() int {
	fill, depth := len(s.run.batches), cap(s.run.batches)
	c := minIngestChunk << uint(5*fill/max(depth, 1)) // 256 … 8192
	if c > maxIngestChunk {
		c = maxIngestChunk
	}
	if c > s.cfg.MaxBatchEdges {
		c = s.cfg.MaxBatchEdges
	}
	return c
}

// chunkPool recycles ingest chunk slices. The runner returns a chunk after
// ProcessBatch (the WAL append has joined and every downstream tier holds
// copies, never the slice), so reuse is alias-free.
var chunkPool = sync.Pool{New: func() any { return new([]graph.StreamEdge) }}

func getChunk() []graph.StreamEdge {
	return (*(chunkPool.Get().(*[]graph.StreamEdge)))[:0]
}

func putChunk(c []graph.StreamEdge) {
	c = c[:0]
	chunkPool.Put(&c)
}

// takeInterner returns a warm edge-decode interner from the server's free
// list, or a new one when every listed one is in use, so a request's first
// frames decode against the strings and attribute maps earlier requests
// left.
func (s *Server) takeInterner() *wire.Interner {
	select {
	case in := <-s.interners:
		return in
	default:
		return wire.NewInterner()
	}
}

// putInterner lists in for the next request, or drops it when the list is
// full: at most GOMAXPROCS interners stay warm.
func (s *Server) putInterner(in *wire.Interner) {
	select {
	case s.interners <- in:
	default:
	}
}

// The refusals an ingest can meet besides ErrDraining: before the first chunk
// is accepted (errQueueFull) or before the body is read at all (errDegraded).
var (
	errQueueFull = errors.New("server: ingest queue full")
	errDegraded  = errors.New("server: durability degraded")
)

// enqueue hands one chunk to the runner. Blocking sends are safe under the
// read lock: Close flips draining under the write lock (so no new sends
// start) and only closes the queue after every read lock is released, while
// the runner keeps draining until then.
func (s *Server) enqueue(b ingestBatch, blocking bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	if blocking {
		s.run.batches <- b
		return nil
	}
	select {
	case s.run.batches <- b:
		return nil
	default:
		return errQueueFull
	}
}

// ingester is the per-request streaming decode state: the one way an edge
// gets from a request body onto the ingest queue. POST /v1/edges and POST
// /v1/stream are settings of it (limit, probe and sess) and nothing else.
type ingester struct {
	s *Server
	// limit caps the edges one batch may enqueue (0 = uncapped): a
	// /v1/edges body, or each batch of a session of batches, is bounded by
	// MaxBatchEdges; a plain session is a stream and is not.
	limit int
	// probe flushes the partial chunk whenever the decoder is about to block
	// on the socket, so a trickling session still gets immediate detection.
	// While the probe never fires the feeder is saturating, and each full
	// chunk doubles the next one's target (up to maxIngestChunk) so the
	// per-chunk routing overhead amortizes; a probe flush falls back to
	// queue-depth-adaptive sizing.
	probe bool
	// sess is the answer stream of a /v1/stream session (nil on /v1/edges).
	sess *session

	arrived int64          // obs stamp of the current chunk's first decoded edge (0 when observability is off)
	job     *ingestJob     // non-nil when the answer waits for the runner's result
	done    chan ingestJob // the wait sentinel's reply channel, reused by each sync of a session
	chunk   []graph.StreamEdge
	target  int   // size at which the current chunk is enqueued
	grown   int   // floor for the next target (probe only)
	total   int   // edges of this batch accepted (enqueued) so far
	chunks  int   // chunks of this batch enqueued so far
	capped  bool  // the batch held more than limit edges
	err     error // what refused the request: ErrDraining, errQueueFull or errDegraded
}

// session is the response side of a /v1/stream ingest once admitted: a
// frame stream, the stream magic and then one wire.FrameAck per sync frame
// of the body and a final one at its end. The header goes out with the
// first ack. A refusal's ack is the last: it ends the session.
type session struct {
	w            http.ResponseWriter
	rc           *http.ResponseController
	buf, scratch []byte
	answered     int  // edges accepted by the batches earlier syncs answered
	ended        bool // a refusal was acked
}

// open admits the session: from here on its response is frames only. Full
// duplex lets an HTTP/1.1 handler keep reading the body after it has
// written an ack (a server without the mode refuses, and needs none). Once
// closing is done the body's reads fail at once, so a session idle on its
// socket ends with the drain; stop undoes that.
func (ss *session) open(w http.ResponseWriter, closing context.Context) (stop func() bool) {
	ss.w, ss.rc = w, http.NewResponseController(w)
	_ = ss.rc.EnableFullDuplex()
	return context.AfterFunc(closing, func() { _ = ss.rc.SetReadDeadline(time.Now()) })
}

// live reports whether the ingest is an admitted session.
func (ss *session) live() bool { return ss != nil && ss.w != nil }

// ack writes one answer frame and pushes it to the client.
func (ss *session) ack(status int, resp api.IngestResponse) {
	ss.buf = ss.buf[:0]
	if ss.scratch == nil { // the first ack: the response starts here
		ss.w.Header().Set("Content-Type", wire.ContentTypeBinary)
		ss.buf = append(ss.buf, wire.StreamMagic...)
	}
	ss.buf, ss.scratch = wire.AppendAckFrame(ss.buf, ss.scratch, wire.Ack{
		Status: status, Accepted: resp.Accepted, Queued: resp.Queued, Error: resp.Error,
	})
	// A write error is a client gone: the next read of the body fails too.
	_, _ = ss.w.Write(ss.buf)
	_ = ss.rc.Flush()
}

// push buffers one decoded edge, flushing the chunk when it reaches its
// target. Returns false to stop the decode loop. A chunk is stamped when its
// first edge is decoded, so a session's queue wait starts at each chunk, not
// at the request.
func (g *ingester) push(se graph.StreamEdge) bool {
	if g.limit > 0 && g.total >= g.limit {
		g.capped = true
		return false
	}
	if g.chunk == nil {
		g.chunk = getChunk()
		g.target = max(g.s.adaptiveChunk(), g.grown)
		if g.s.obsClock != nil {
			g.arrived = g.s.obsClock.Now()
		}
	}
	g.chunk = append(g.chunk, se)
	g.total++
	if len(g.chunk) < g.target {
		return true
	}
	if g.probe {
		g.grown = min(2*g.target, maxIngestChunk)
	}
	return g.flush()
}

// flush enqueues the buffered chunk. The first chunk of a batch is
// non-blocking — admission control stays a fast 429 — while later chunks
// block: the batch is already partially accepted, so backpressure switches
// from shedding to pacing the decoder (and, transitively, the client's TCP
// stream) against the runner.
func (g *ingester) flush() bool {
	if len(g.chunk) == 0 {
		return true
	}
	b := ingestBatch{edges: g.chunk, job: g.job, enqNS: g.arrived}
	if err := g.s.enqueue(b, g.chunks > 0); err != nil {
		g.total -= len(g.chunk)
		putChunk(g.chunk)
		g.chunk = nil
		g.err = err
		return false
	}
	g.chunks++
	g.chunk = nil
	return true
}

// consume streams a request body through push — binary frames (magic + edge
// frames) or NDJSON, by content type — and flushes the trailing partial
// chunk, even after a decode error or the cap, so Accepted reports exactly
// what was enqueued. It returns the decode error, if any; a stop asked for
// by push (cap, enqueue failure) or by a refused sync is recorded on g
// instead.
func (g *ingester) consume(r *http.Request) error {
	var err error
	if strings.Contains(r.Header.Get("Content-Type"), wire.ContentTypeBinary) {
		err = g.consumeBinary(r.Body)
	} else {
		err = loader.DecodeJSONL(r.Body, g.push)
	}
	if g.err == nil {
		g.flush()
	}
	return err
}

// consumeBinary is the one frame loop. Match frames in an ingest body are
// corrupt input, and so are sync frames outside a session.
func (g *ingester) consumeBinary(body io.Reader) error {
	rd := wire.NewReader(body)
	in := g.s.takeInterner()
	defer g.s.putInterner(in)
	for {
		if g.probe && len(g.chunk) > 0 && rd.Buffered() < streamFlushProbe {
			// About to block on the socket: dispatch what we have.
			if !g.flush() {
				return nil
			}
			g.grown = 0
		}
		typ, payload, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch {
		case typ == wire.FrameEdge:
			se, err := in.DecodeEdge(payload)
			if err != nil {
				return err
			}
			if !g.push(se) {
				return nil
			}
		case typ == wire.FrameSync && g.sess.live() && len(payload) == 0:
			if !g.sync() {
				return nil
			}
		default:
			return wire.ErrCorrupt
		}
	}
}

// sync answers a session's sync frame: the batch since the previous sync is
// flushed and answered exactly as a POST /v1/edges?wait=1 of the same bytes
// would be, and the next batch starts empty. It reports false when the
// answer is a refusal, which ends the session.
func (g *ingester) sync() bool {
	g.flush()
	status, resp := g.outcome(g.sess.w.Header(), nil)
	g.sess.ack(status, resp)
	if status >= http.StatusMultipleChoices {
		g.sess.ended = true
		return false
	}
	g.sess.answered += resp.Accepted
	g.total, g.chunks = 0, 0
	*g.job = ingestJob{} // the runner is done with it: the sentinel came back
	return true
}

// outcome is the one mapping from an ingest's state to its answer — the
// status and body of a /v1/edges response, or the fields of a session's
// ack — waiting for the runner when the answer calls for it. Chunks already
// enqueued cannot be recalled, so a refusal that comes after the first chunk
// reports in Accepted how far the batch got. Headers go to h.
func (g *ingester) outcome(h http.Header, decodeErr error) (int, api.IngestResponse) {
	resp := api.IngestResponse{Accepted: g.total, Queued: g.total > 0}
	status := http.StatusAccepted
	switch {
	case errors.Is(g.err, ErrDraining):
		status, resp.Error = http.StatusServiceUnavailable, "draining"
	case errors.Is(g.err, errDegraded):
		h.Set("Retry-After", "1")
		status, resp.Error = http.StatusServiceUnavailable, "durability degraded"
	case errors.Is(g.err, errQueueFull):
		g.s.batchesRejected.Inc()
		h.Set("Retry-After", "1")
		status, resp.Error = http.StatusTooManyRequests, "ingest queue full"
	case decodeErr != nil:
		status, resp.Error = http.StatusBadRequest, "decoding edges: "+decodeErr.Error()
	case g.capped:
		status = http.StatusRequestEntityTooLarge
		resp.Error = fmt.Sprintf("batch exceeds %d edges; split the upload", g.limit)
	case g.job != nil && g.chunks > 0:
		return g.wait(h)
	case g.job != nil: // nothing to wait for
		status = http.StatusOK
	}
	return status, resp
}

// wait enqueues the sentinel chunk that carries the reply channel (FIFO
// ordering means it completes only after every data chunk) and returns the
// authoritative result.
func (g *ingester) wait(h http.Header) (int, api.IngestResponse) {
	if g.done == nil {
		g.done = make(chan ingestJob, 1)
	}
	if g.err = g.s.enqueue(ingestBatch{job: g.job, done: g.done}, true); g.err != nil {
		return g.outcome(h, nil) // draining: the data chunks stay queued
	}
	// Bound the wait so a stalled disk (WAL fsync hanging under the runner)
	// cannot wedge HTTP workers. The chunks are queued and will still be
	// processed; done is buffered, so the runner's send never blocks on an
	// abandoned waiter, and a timeout ends a session, so nothing waits on
	// done again.
	var timeout <-chan time.Time // nil, so never ready, without an IngestTimeout
	if g.s.cfg.IngestTimeout > 0 {
		t := time.NewTimer(g.s.cfg.IngestTimeout)
		defer t.Stop()
		timeout = t.C
	}
	var res ingestJob
	select {
	case res = <-g.done:
	case <-timeout:
		h.Set("Retry-After", "1")
		return http.StatusServiceUnavailable, api.IngestResponse{
			Accepted: g.total, Queued: true,
			Error: "ingest wait timed out; batch still queued",
		}
	}
	resp := api.IngestResponse{Accepted: res.processed}
	if res.err != nil {
		resp.Error = res.err.Error()
		return http.StatusInternalServerError, resp
	}
	return http.StatusOK, resp
}

// respond answers the end of the body: a batch, and any request refused at
// admission, with JSON; a session with its final ack, which counts every
// edge the session got accepted — unless a refused sync already ended it.
func (g *ingester) respond(w http.ResponseWriter, decodeErr error) {
	if g.sess.live() && g.sess.ended {
		return
	}
	status, resp := g.outcome(w.Header(), decodeErr)
	if !g.sess.live() {
		writeJSON(w, status, resp)
		return
	}
	resp.Accepted += g.sess.answered
	g.sess.ack(status, resp)
}

// ingest runs one request through the ingester g: admission (drain state,
// durability policy, the fast queue-full probe), then the streaming decode,
// then the answer either one calls for.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, g *ingester) {
	switch {
	case s.isDraining():
		g.err = ErrDraining
	case s.cfg.RequireDurability && s.eng.Durability().Mode == "degraded":
		// The operator asked for durable ingest or nothing: refuse rather
		// than silently accept edges that would not survive a restart.
		g.err = errDegraded
	case len(s.run.batches) == cap(s.run.batches):
		// Fast path only — the authoritative check is the first chunk's
		// non-blocking enqueue.
		g.err = errQueueFull
	}
	var decodeErr error
	if g.err == nil {
		if g.sess != nil {
			stop := g.sess.open(w, s.closing)
			defer stop()
		}
		decodeErr = g.consume(r)
		if errors.Is(decodeErr, os.ErrDeadlineExceeded) && s.isDraining() {
			g.err = ErrDraining // the drain cut the session's read short
		}
	}
	g.respond(w, decodeErr)
}

// handleIngest is POST /v1/edges: one batch, NDJSON or binary frames, at
// most MaxBatchEdges edges (413 beyond); ?wait=1 answers once the batch has
// been routed to the shards.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	g := &ingester{s: s, limit: s.cfg.MaxBatchEdges}
	if r.URL.Query().Get("wait") != "" {
		g.job = &ingestJob{}
	}
	s.ingest(w, r, g)
}

// handleStream is POST /v1/stream, the persistent-connection ingest session:
// one long-lived POST whose body is a binary frame stream, decoded and
// handed to the shards as frames arrive. Backpressure is the TCP window — a
// full queue blocks the decoder, which stops reading the socket. A plain
// session is a stream, not a batch: no edge cap, and a partial chunk is
// dispatched whenever the decoder would block. With ?batch=1 it is a session
// of batches: each sync frame closes one, which is capped and chunked like a
// /v1/edges body. Either way a sync frame is answered, in the response's
// frame stream, as a /v1/edges?wait=1 of the edges since the previous sync
// would be, and the end of the body with the session's total; a refusal
// ends the session. A session refused at admission gets a JSON status.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !strings.Contains(r.Header.Get("Content-Type"), wire.ContentTypeBinary) {
		writeError(w, http.StatusUnsupportedMediaType,
			"stream sessions are binary only; set Content-Type: %s", wire.ContentTypeBinary)
		return
	}
	g := &ingester{s: s, probe: true, job: &ingestJob{}, sess: &session{}}
	if r.URL.Query().Get("batch") != "" {
		g.limit, g.probe = s.cfg.MaxBatchEdges, false
	}
	s.ingest(w, r, g)
}
