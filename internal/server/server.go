// Package server exposes the StreamWorks engine over HTTP, turning
// the library into the paper's system: analysts register continuous queries
// in the text DSL, feeders push timestamped edge batches, and subscribers
// receive every complete match as it emerges, streamed as NDJSON or binary
// frames.
//
// The serving layer fronts the public streamworks engine (a Sharded
// backend). Inbound, an edge crosses one path: every ingest request, batch
// or session, runs the same ingester — one decode loop per codec, adaptive
// chunk sizing, one bounded queue (HTTP 429 sheds overload at admission
// before the first chunk, TCP backpressure paces the rest) — and a single
// runner goroutine hands the queued chunks to the engine. Control requests
// (register, unregister, advance, metrics) call the engine directly from
// their handlers: the engine's own mutex orders them against edge batches
// and in the WAL, and the set of registered queries is the engine's, read
// back for listings and subscription filters rather than mirrored here. On
// the output side every match subscriber is its own per-query push
// subscription on the engine, buffered by the hub; each match is flushed to
// the subscriber's socket the moment it surfaces (coalescing only what is
// already buffered), and a subscriber that cannot keep up is evicted, never
// waited on, so a stalled dashboard cannot stall detection.
//
// Both ingest and match delivery negotiate between NDJSON and the binary
// frame transport (internal/wire): Content-Type selects the ingest codec,
// Accept selects the delivery codec.
//
// Endpoints:
//
//	POST   /v1/queries        register a query (body: text DSL; ?strategy=)
//	                          → its shape and plan settings
//	GET    /v1/queries        list registered queries
//	GET    /v1/queries/{name} fetch one query, rendered back as DSL text
//	DELETE /v1/queries/{name} unregister
//	POST   /v1/edges          ingest an edge batch (NDJSON, or binary frames
//	                          with Content-Type: application/x-streamworks-frame;
//	                          ?wait=1 to block until processed; 429 on overload)
//	POST   /v1/stream         persistent binary ingest session: the body is a
//	                          long-lived frame stream, dispatched as it arrives;
//	                          each sync frame is answered by an ack frame, in
//	                          full duplex (?batch=1: each batch capped as above)
//	POST   /v1/advance        advance stream time (body: {"ts": ns})
//	GET    /v1/matches        stream matches (?query= filters; NDJSON, binary
//	                          frames when Accept: application/x-streamworks-frame)
//	GET    /v1/metrics        engine + server + WAL views, and the
//	                          merged registry snapshot they were read from
//	GET    /metrics           the same registries in Prometheus text format
//	GET    /healthz           liveness
//
// Close drains gracefully: new work is refused with 503, queued batches are
// flushed through the engine, which delivers their matches, and every
// subscriber's stream ends cleanly after its final delivery.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/wire"
)

// Config sizes the serving layer around an engine configuration.
type Config struct {
	// Shard configures the engine, which runs on the ingest runner's
	// goroutine: only its Engine is read, into the backend streamworks.New
	// builds. Shards is read by nothing (a process runs one engine).
	Shard shard.Config
	// QueueDepth is the ingest queue bound in batches (default 64). When the
	// queue is full POST /v1/edges fails fast with 429.
	QueueDepth int
	// SubscriberBuffer is the per-subscriber match buffer (default 256). A
	// subscriber whose buffer overflows is evicted.
	SubscriberBuffer int
	// MaxBatchEdges caps the number of edges decoded from one ingest request
	// (default 65536); larger bodies get 413.
	MaxBatchEdges int
	// DataDir enables durability: ingested batches, registrations and
	// watermark advances are write-ahead logged under this directory, and a
	// restart pointing at the same directory recovers the engine state,
	// redelivering only the matches that were never flushed to a subscriber.
	// Empty disables durability.
	DataDir string
	// FsyncPolicy is "always", "interval" (default; group commit every 50ms)
	// or "off"; see streamworks.WithFsyncPolicy. Requires DataDir.
	FsyncPolicy string
	// SnapshotEvery checkpoints the WAL every n ingested batches (default
	// 4096; negative leaves it to segment size); see
	// streamworks.WithSnapshotEvery. Requires DataDir.
	SnapshotEvery int
	// RequireDurability makes ingest refuse with 503 (plus Retry-After)
	// while durability is degraded, instead of silently continuing
	// in-memory. Requires DataDir.
	RequireDurability bool
	// IngestTimeout bounds how long a wait=1 ingest request blocks on the
	// engine before answering 503 (the batch stays queued and is still
	// processed). Zero means no bound. A stalled WAL disk therefore cannot
	// wedge HTTP workers indefinitely.
	IngestTimeout time.Duration
}

// ErrDraining is reported (as HTTP 503) for work arriving after Close began.
var ErrDraining = errors.New("server: draining")

// maxQueryBytes caps a query registration body; a larger one gets 413.
const maxQueryBytes = 1 << 20

// Server is the HTTP front-end. It implements http.Handler; mount it on any
// listener (net/http, httptest). Create with New, stop with Close.
type Server struct {
	cfg Config
	eng *streamworks.Sharded
	run *runner
	hub *hub
	mux *http.ServeMux

	started   time.Time
	closeOnce sync.Once // Do also makes concurrent Close calls wait for the drain

	// mu guards draining. Handlers hold the read lock across their engine
	// hand-off (queue send or control call); Close takes the write lock to
	// flip draining, so once it holds the lock no handler is mid-hand-off
	// and the queue and the engine can be closed safely.
	mu       sync.RWMutex
	draining bool

	// interners is the free list of binary-ingest decode interners: a
	// request takes one, or makes one when the list is empty, and lists it
	// again when it is done, or drops it when the list is full. It holds
	// GOMAXPROCS, as many as can decode at once. A listed interner stays
	// warm until used (the GC drops a sync.Pool's entries), and a
	// sequential client decodes against one table.
	interners chan *wire.Interner

	// closing is cancelled when Close begins: an ingest session idle on its
	// socket stops reading then, and answers its end with a 503.
	closing     context.Context
	endSessions context.CancelFunc

	// reg is the serving tier's registry: ingest, rejection and delivery
	// counts and the subscriber and queue sizes (the runner and the hub
	// write theirs), plus the segments it owns — ingest-queue wait and HTTP
	// flush — when observability is on.
	reg             *obs.Registry
	batchesRejected *obs.Counter
	queueLen        *obs.Gauge

	// Observability (all nil when Config.Shard.Engine.Obs.Enabled is off):
	// the clock is shared with the engine tiers below so segment
	// measurements line up.
	obsEnabled bool
	obsClock   obs.Clock
	obsFlush   *obs.Histogram
	// obsJourney is the match-weighted arrival→flush journey histogram,
	// recorded once per delivered match from the arrival stamp the edge
	// carried through the tiers. Its mean is directly comparable to a
	// client's measured detect-and-deliver latency.
	obsJourney *obs.Histogram
}

// New builds and starts a server: the engine, the ingest-driving
// runner and the subscriber hub all spin up immediately. cfg may be
// zero-valued; defaults are applied.
func New(cfg Config) *Server {
	if cfg.MaxBatchEdges <= 0 {
		cfg.MaxBatchEdges = 65536
	}
	// Normalize the obs seam once, up front, so the serving tier and every
	// engine tier below share one clock; the engine config carries the
	// normalized form down to the engine.
	obsCfg := cfg.Shard.Engine.Obs.Normalized()
	cfg.Shard.Engine.Obs = obsCfg
	engOpts := []streamworks.Option{
		streamworks.WithEngineConfig(cfg.Shard.Engine),
	}
	if cfg.DataDir != "" {
		engOpts = append(engOpts,
			streamworks.WithDataDir(cfg.DataDir),
			streamworks.WithFsyncPolicy(cfg.FsyncPolicy),
			streamworks.WithSnapshotEvery(cfg.SnapshotEvery),
			// Delivery here is asynchronous (hub buffer, HTTP flush), so a
			// sink return proves nothing; the match handler acks each match
			// after flushing it to the subscriber's socket.
			streamworks.WithManualDeliveryAck(true),
		)
	}
	eng := streamworks.New(engOpts...)
	reg := obs.NewRegistry()
	s := &Server{
		cfg:             cfg,
		eng:             eng,
		started:         time.Now(),
		reg:             reg,
		batchesRejected: reg.Counter("server_batches_rejected", "", ""),
		queueLen:        reg.Gauge("server_ingest_queue_len", "", ""),
		hub:             newHub(cfg.SubscriberBuffer, eng.Subscribe, reg),
		run:             newRunner(eng, cfg.QueueDepth, reg),
		interners:       make(chan *wire.Interner, runtime.GOMAXPROCS(0)),
	}
	s.closing, s.endSessions = context.WithCancel(context.Background())
	reg.Gauge("server_ingest_queue_cap", "", "").Set(int64(cap(s.run.batches)))
	if obsCfg.Enabled {
		s.obsEnabled = true
		s.obsClock = obsCfg.Clock
		s.obsFlush = reg.Segment(obs.SegHTTPFlush)
		s.obsJourney = reg.Histogram(obs.JourneyHistogramName, "", "")
		s.run.obsClock = obsCfg.Clock
		s.run.obsWait = reg.Segment(obs.SegIngestQueueWait)
	}
	go s.run.loop()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	s.mux.HandleFunc("POST /v1/queries", s.handleRegister)
	s.mux.HandleFunc("GET /v1/queries", s.handleListQueries)
	s.mux.HandleFunc("GET /v1/queries/{name}", s.handleGetQuery)
	s.mux.HandleFunc("DELETE /v1/queries/{name}", s.handleUnregister)
	s.mux.HandleFunc("POST /v1/edges", s.handleIngest)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/advance", s.handleAdvance)
	s.mux.HandleFunc("GET /v1/matches", s.handleMatches)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine exposes the underlying public engine for tests and embedders. It
// is safe for concurrent use, but mutating it directly bypasses the serving
// layer's queue accounting; prefer the HTTP surface.
func (s *Server) Engine() *streamworks.Sharded { return s.eng }

// Close drains the server: subsequent work is refused with 503, queued
// ingest batches are flushed through the engine, and the engine drain ends
// every subscriber's stream after its final buffered matches. It is
// idempotent and safe to call concurrently; all callers block until the
// drain completes.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.endSessions()
		// No handler is past its draining check now, so the queue can close:
		// the runner finishes everything already accepted and exits.
		close(s.run.batches)
		<-s.run.stopped
		// New subscribers are refused from here on …
		s.hub.close()
		// … and the engine drain finishes every live subscription: each
		// handler sees Done after its final delivery and ends its stream.
		s.eng.Close()
	})
}

func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// admit opens a control request: it takes the read lock the caller must
// release once its engine call has returned — Close cannot close the engine
// under a call that got in — or, if the drain has begun, answers 503 and
// reports false.
func (s *Server) admit(w http.ResponseWriter) bool {
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return false
	}
	return true
}

// ---- HTTP plumbing ----------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := api.HealthResponse{
		Status:        "ok",
		Version:       api.Version,
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     runtime.Version(),
		ObsEnabled:    s.obsEnabled,
		Durability:    s.eng.Durability().Mode,
	}
	if s.isDraining() {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- queries ----------------------------------------------------------

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading query body: %v", err)
		return
	}
	if len(body) > maxQueryBytes {
		// Reject rather than truncate: a prefix of a line-oriented DSL body
		// can parse cleanly as a different (smaller) query.
		writeError(w, http.StatusRequestEntityTooLarge,
			"query body exceeds %d bytes", maxQueryBytes)
		return
	}
	q, err := query.Parse(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing query: %v", err)
		return
	}
	opts := streamworks.RegisterOptions{Strategy: r.URL.Query().Get("strategy")}
	if !s.admit(w) {
		return
	}
	err = s.eng.RegisterQueryWith(r.Context(), q, opts)
	s.mu.RUnlock()
	if err != nil {
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, streamworks.ErrUnnamedQuery):
			status = http.StatusBadRequest
		case errors.Is(err, streamworks.ErrDuplicateQuery):
			status = http.StatusConflict
		}
		writeError(w, status, "registering %q: %v", q.Name(), err)
		return
	}

	strategy := opts.Strategy
	if strategy == "" {
		strategy = streamworks.PlanStrategies()[0]
	}
	writeJSON(w, http.StatusCreated, api.RegisterResponse{
		Name:     q.Name(),
		Window:   q.Window().String(),
		Vertices: q.NumVertices(),
		Edges:    q.NumEdges(),
		Strategy: strategy,
	})
}

func (s *Server) handleListQueries(w http.ResponseWriter, _ *http.Request) {
	queries := s.eng.RegisteredQueries() // name-sorted
	infos := make([]api.QueryInfo, 0, len(queries))
	for _, q := range queries {
		infos = append(infos, api.QueryInfo{
			Name:     q.Name(),
			Window:   q.Window().String(),
			Vertices: q.NumVertices(),
			Edges:    q.NumEdges(),
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	for _, q := range s.eng.RegisteredQueries() {
		if q.Name() == name {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, query.Format(q))
			return
		}
	}
	writeError(w, http.StatusNotFound, "unknown query %q", name)
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.admit(w) {
		return
	}
	err := s.eng.UnregisterQuery(r.Context(), name)
	s.mu.RUnlock()
	if err != nil {
		writeError(w, http.StatusNotFound, "unregistering %q: %v", name, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- ingest -----------------------------------------------------------

// handleIngest and handleStream live in ingest.go: streaming decode with
// adaptive chunking, NDJSON or binary frames by content negotiation.

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req api.AdvanceRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding advance request: %v", err)
		return
	}
	if !s.admit(w) {
		return
	}
	_ = s.eng.Advance(r.Context(), graph.Timestamp(req.TS)) // fails only if the caller has gone
	s.mu.RUnlock()
	w.WriteHeader(http.StatusNoContent)
}

// ---- matches ----------------------------------------------------------

func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	queryName := r.URL.Query().Get("query")
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	// The subscriber is a per-query push subscription on the engine — the
	// engine filters and delivers, the hub only buffers. Matches arrive
	// fully resolved (the public Match form), ready to encode. The engine is
	// also the one judge of whether queryName is registered.
	sub, err := s.hub.register(queryName)
	if errors.Is(err, streamworks.ErrUnknownQuery) {
		writeError(w, http.StatusNotFound, "unknown query %q", queryName)
		return
	}
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.hub.unsubscribe(sub)

	binary := strings.Contains(r.Header.Get("Accept"), wire.ContentTypeBinary)
	if binary {
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	if binary {
		if _, err := w.Write(wire.StreamMagic); err != nil {
			return
		}
	}
	flusher.Flush()

	// encode writes one match without flushing. The binary path reuses
	// per-connection frame and payload buffers across matches, so steady
	// delivery allocates nothing (allocbudget's wire.AppendMatchFrame row).
	enc := json.NewEncoder(w)
	var frameBuf, scratch []byte
	encode := func(rep streamworks.Match) bool {
		if !binary {
			return enc.Encode(rep) == nil
		}
		frameBuf, scratch = wire.AppendMatchFrame(frameBuf[:0], scratch, rep)
		_, err := w.Write(frameBuf)
		return err == nil
	}

	// Flush-on-match with coalescing: every group of matches is flushed the
	// moment it is encoded — a detected match never waits for a batch
	// boundary — but matches already buffered behind the first are written
	// in the same flush, so a burst costs one syscall, not one per match.
	pending := make([]streamworks.Match, 0, 16)
	flushPending := func() bool {
		if len(pending) == 0 {
			return true
		}
		var t0 int64
		if s.obsFlush != nil {
			t0 = s.obsClock.Now()
		}
		for _, rep := range pending {
			if !encode(rep) {
				return false
			}
		}
		flusher.Flush()
		if s.cfg.DataDir != "" {
			// Flushed to the subscriber's socket: the kernel delivers
			// buffered data even if we crash now, so each match counts as
			// delivered and is suppressed (not redelivered) after recovery.
			for _, rep := range pending {
				s.eng.AckDelivered(rep)
			}
		}
		if s.obsFlush != nil {
			now := s.obsClock.Now()
			for _, rep := range pending {
				// Measure from the engine's delivery stamp when present: the
				// flush segment then covers the subscriber-buffer wait as
				// well as the encode+flush, picking up exactly where the
				// dispatch segment ends so the per-segment means account for
				// the whole detect-and-deliver journey.
				st := rep.DeliveredWallNS
				if st == 0 {
					st = t0
				}
				s.obsFlush.Observe(now - st)
				if rep.ArrivedWallNS != 0 {
					// The match-weighted closure check: the whole journey of
					// this match, from its completing edge reaching the
					// daemon to the flush that just delivered it.
					s.obsJourney.Observe(now - rep.ArrivedWallNS)
				}
			}
		}
		// Cleared so no flushed report stays reachable from the spare
		// capacity, pinning the slab chunks its slices were carved from.
		clear(pending)
		pending = pending[:0]
		return true
	}
	// collect drains matches already buffered behind first without
	// blocking, bounded so one flush never starves; reports whether the
	// subscriber channel is still open.
	collect := func(first streamworks.Match) bool {
		pending = append(pending, first)
		for len(pending) < 64 {
			select {
			case rep, open := <-sub.ch:
				if !open {
					return false
				}
				pending = append(pending, rep)
			default:
				return true
			}
		}
		return true
	}
	for {
		select {
		case rep, open := <-sub.ch:
			if !open {
				// Evicted for falling behind; the stream ends cleanly and
				// the client resubscribes.
				return
			}
			open = collect(rep)
			// Deliver what was collected even if the hub closed the channel
			// mid-drain — those matches were handed to this subscriber.
			if !flushPending() || !open {
				return
			}
		case <-sub.sub.Done():
			// Engine drained: no further deliveries can happen, so flush
			// whatever is still buffered and end the stream cleanly.
			for {
				select {
				case rep, open := <-sub.ch:
					if !open {
						return
					}
					open = collect(rep)
					if !flushPending() || !open {
						return
					}
				default:
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// ---- metrics ----------------------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if !s.admit(w) {
		return
	}
	engine, snap := s.eng.MetricsSnapshot()
	s.mu.RUnlock()
	merged := obs.Merge(s.snapshot(), snap)
	resp := api.MetricsResponse{Engine: engine, Obs: &merged}
	obs.Fill(&resp.Server, merged, "")
	if s.cfg.DataDir != "" {
		wal := api.WALMetricsFrom(merged)
		resp.WAL = &wal
	}
	writeJSON(w, http.StatusOK, resp)
}

// snapshot refreshes the serving tier's queue-depth gauge and reads its
// registry.
func (s *Server) snapshot() obs.Snapshot {
	s.queueLen.Set(int64(len(s.run.batches)))
	return s.reg.Snapshot()
}

// PromHandler returns the Prometheus exposition handler (the same one
// mounted at GET /metrics on the API mux), for embedders that serve it from
// a separate debug listener — streamworksd mounts it next to pprof.
func (s *Server) PromHandler() http.Handler { return http.HandlerFunc(s.handleProm) }

// handleProm serves Prometheus text-format exposition of every tier's registry
// — the server's, the engine's and the WAL's — merged: each counter and gauge
// as streamworks_<name>, plus the latency histograms when observability is on.
// It reads only registry cells — no engine round trip, no engine or WAL lock,
// no drain check — so scrapes keep working while ingest is saturated, a log
// write is stalled, or the server is draining.
func (s *Server) handleProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.Gauge("up", "", "", 1)
	obsOn := 0.0
	if s.obsEnabled {
		obsOn = 1
	}
	p.Gauge("obs_enabled", "", "", obsOn)
	p.Snapshot(obs.Merge(s.snapshot(), s.eng.ObsSnapshot()))
	// A write error leaves a truncated scrape, which is what the client sees;
	// the response is already partially written, so there is nothing to add.
	_ = p.Err()
}
