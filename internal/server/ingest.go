package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
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
// /v1/stream are two settings of it (limit and probe) and nothing else.
type ingester struct {
	s *Server
	// limit caps the edges one request may enqueue (0 = uncapped): a batch
	// is bounded by MaxBatchEdges, a session is a stream and is not.
	limit int
	// probe flushes the partial chunk whenever the decoder is about to block
	// on the socket, so a trickling session still gets immediate detection.
	// While the probe never fires the feeder is saturating, and each full
	// chunk doubles the next one's target (up to maxIngestChunk) so the
	// per-chunk routing overhead amortizes; a probe flush falls back to
	// queue-depth-adaptive sizing.
	probe bool

	arrived int64      // obs arrival stamp (0 when observability is off)
	job     *ingestJob // non-nil when the response waits for the runner's result
	chunk   []graph.StreamEdge
	target  int   // size at which the current chunk is enqueued
	grown   int   // floor for the next target (probe only)
	total   int   // edges accepted (enqueued) so far
	chunks  int   // chunks enqueued so far
	capped  bool  // the body held more than limit edges
	err     error // what refused the request: ErrDraining, errQueueFull or errDegraded
}

// push buffers one decoded edge, flushing the chunk when it reaches its
// target. Returns false to stop the decode loop.
func (g *ingester) push(se graph.StreamEdge) bool {
	if g.limit > 0 && g.total >= g.limit {
		g.capped = true
		return false
	}
	if g.chunk == nil {
		g.chunk = getChunk()
		g.target = max(g.s.adaptiveChunk(), g.grown)
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

// flush enqueues the buffered chunk. The first chunk of a request is
// non-blocking — admission control stays a fast 429 — while later chunks
// block: the request is already partially accepted, so backpressure
// switches from shedding to pacing the decoder (and, transitively, the
// client's TCP stream) against the runner.
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
// by push (cap, enqueue failure) is recorded on g instead.
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
// corrupt input.
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
		if typ != wire.FrameEdge {
			return wire.ErrCorrupt
		}
		se, err := in.DecodeEdge(payload)
		if err != nil {
			return err
		}
		if !g.push(se) {
			return nil
		}
	}
}

// respond is the one mapping from an ingest outcome to its HTTP response.
// Chunks already enqueued cannot be recalled, so a refusal that comes after
// the first chunk reports in Accepted how far the body got.
func (g *ingester) respond(w http.ResponseWriter, decodeErr error) {
	resp := api.IngestResponse{Accepted: g.total, Queued: g.total > 0}
	status := http.StatusAccepted
	switch {
	case errors.Is(g.err, ErrDraining):
		status, resp.Error = http.StatusServiceUnavailable, "draining"
	case errors.Is(g.err, errDegraded):
		w.Header().Set("Retry-After", "1")
		status, resp.Error = http.StatusServiceUnavailable, "durability degraded"
	case errors.Is(g.err, errQueueFull):
		g.s.batchesRejected.Inc()
		w.Header().Set("Retry-After", "1")
		status, resp.Error = http.StatusTooManyRequests, "ingest queue full"
	case decodeErr != nil:
		status, resp.Error = http.StatusBadRequest, "decoding edges: "+decodeErr.Error()
	case g.capped:
		status = http.StatusRequestEntityTooLarge
		resp.Error = fmt.Sprintf("batch exceeds %d edges; split the upload", g.limit)
	case g.job != nil && g.chunks > 0:
		g.s.waitIngest(w, g)
		return
	case g.job != nil: // nothing to wait for
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// ingest runs one request through the ingester g: admission (drain state,
// durability policy, the fast queue-full probe), then the streaming decode,
// then the response either one calls for.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, g *ingester) {
	// The ingest segment starts at request arrival, not at enqueue: body
	// decode is a real part of the edge's journey, and stamping here is what
	// lets the per-segment means account for detect-and-deliver latency.
	if s.obsClock != nil {
		g.arrived = s.obsClock.Now()
	}
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
		decodeErr = g.consume(r)
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
// full queue blocks the decoder, which stops reading the socket. A session
// is a stream, not a batch: no edge cap, and the JSON summary answers at EOF
// with the routed total.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !strings.Contains(r.Header.Get("Content-Type"), wire.ContentTypeBinary) {
		writeError(w, http.StatusUnsupportedMediaType,
			"stream sessions are binary only; set Content-Type: %s", wire.ContentTypeBinary)
		return
	}
	s.ingest(w, r, &ingester{s: s, probe: true, job: &ingestJob{}})
}

// waitIngest enqueues the sentinel chunk that carries the reply channel
// (FIFO ordering means it completes only after every data chunk) and
// answers with the authoritative result.
func (s *Server) waitIngest(w http.ResponseWriter, g *ingester) {
	done := make(chan ingestJob, 1)
	if g.err = s.enqueue(ingestBatch{job: g.job, done: done}, true); g.err != nil {
		g.respond(w, nil) // draining: the data chunks stay queued
		return
	}
	// Bound the wait so a stalled disk (WAL fsync hanging under the runner)
	// cannot wedge HTTP workers. The chunks are queued and will still be
	// processed; done is buffered, so the runner's send never blocks on an
	// abandoned waiter.
	var timeout <-chan time.Time // nil, so never ready, without an IngestTimeout
	if s.cfg.IngestTimeout > 0 {
		t := time.NewTimer(s.cfg.IngestTimeout)
		defer t.Stop()
		timeout = t.C
	}
	var res ingestJob
	select {
	case res = <-done:
	case <-timeout:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, api.IngestResponse{
			Accepted: g.total, Queued: true,
			Error: "ingest wait timed out; batch still queued",
		})
		return
	}
	resp := api.IngestResponse{Accepted: res.processed}
	if res.err != nil {
		resp.Error = res.err.Error()
		writeJSON(w, http.StatusInternalServerError, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
