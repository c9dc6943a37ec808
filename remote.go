package streamworks

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/client"
)

// Remote is the HTTP backend: the same Engine surface served by a remote
// streamworksd daemon. Queries travel as the text DSL, edges as NDJSON
// batches or, over TransportBinary, binary-frame batches on one ingest
// session (WithTransport), matches as a streaming subscription per
// Subscribe call.
type Remote struct {
	c    *client.Client
	info ServerInfo

	// ctx lives as long as the Remote: Close cancels it, which tears down
	// an ingest session in the middle of a call.
	ctx    context.Context
	cancel context.CancelFunc

	// ingest serialises ProcessBatch on the binary ingest session, which is
	// opened on first use and dropped on any error (nil until then).
	ingest     sync.Mutex
	session    *client.EdgeStream
	endSession context.CancelFunc

	mu     sync.Mutex
	subs   map[*remoteSub]struct{}
	closed bool
}

var _ Engine = (*Remote)(nil)

// Connect dials the daemon at baseURL (e.g. "http://127.0.0.1:8090"),
// verifies it is healthy, and returns the remote engine. The daemon's
// self-description is available via ServerInfo. Closing the Remote tears
// down its subscriptions but leaves the daemon running.
func Connect(ctx context.Context, baseURL string, opts ...Option) (*Remote, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var copts []client.Option
	if cfg.httpClient != nil {
		copts = append(copts, client.WithHTTPClient(cfg.httpClient))
	}
	if cfg.transport != "" {
		copts = append(copts, client.WithTransport(cfg.transport))
	}
	c := client.New(baseURL, copts...)
	h, err := c.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("streamworks: connecting to %s: %w", baseURL, err)
	}
	rctx, cancel := context.WithCancel(context.Background())
	return &Remote{c: c, info: *h, ctx: rctx, cancel: cancel, subs: make(map[*remoteSub]struct{})}, nil
}

// ServerInfo returns the daemon's health self-description captured at
// Connect time (API version, shard count, uptime).
func (r *Remote) ServerInfo() ServerInfo { return r.info }

// remoteErr maps wire-level failures onto the shared API sentinels so
// errors.Is behaves identically across backends.
func remoteErr(err error, sentinelByStatus map[int]error) error {
	var ae *client.APIError
	if errors.As(err, &ae) {
		if sent, ok := sentinelByStatus[ae.Status]; ok {
			return fmt.Errorf("%w (%v)", sent, err)
		}
	}
	return err
}

// RegisterQuery registers q with the daemon (serialized through the text
// DSL), selective.
func (r *Remote) RegisterQuery(ctx context.Context, q *Query) error {
	return r.RegisterQueryWith(ctx, q, RegisterOptions{})
}

// RegisterQueryWith registers q with its own plan settings, which travel as
// URL parameters on POST /v1/queries; the daemon's engine performs the
// planning.
func (r *Remote) RegisterQueryWith(ctx context.Context, q *Query, opts RegisterOptions) error {
	if q == nil {
		return ErrNilQuery
	}
	if q.Name() == "" {
		return ErrUnnamedQuery
	}
	if err := r.checkOpen(); err != nil {
		return err
	}
	_, err := r.c.RegisterQueryWith(ctx, q, opts)
	return remoteErr(err, map[int]error{http.StatusConflict: ErrDuplicateQuery})
}

// UnregisterQuery removes a registered query by name.
func (r *Remote) UnregisterQuery(ctx context.Context, name string) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	err := r.c.UnregisterQuery(ctx, name)
	return remoteErr(err, map[int]error{http.StatusNotFound: ErrUnknownQuery})
}

// ProcessBatch ships a batch of edges and waits until the batch has been
// routed to the shards. Over NDJSON each batch is one POST
// /v1/edges?wait=1. Over TransportBinary every batch travels on one
// long-lived ingest session (POST /v1/stream?batch=1) as its edge frames
// and a sync frame, answered by an ack frame; the answer is the one the
// same batch would get as a POST. Either way an overloaded daemon (HTTP
// 429) surfaces as a *client.APIError the caller can test with
// client.IsOverloaded and retry. A failed or cancelled call drops the
// session, and the next call opens another.
func (r *Remote) ProcessBatch(ctx context.Context, edges []StreamEdge) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	var res *api.IngestResponse
	var err error
	if r.c.Transport() == client.TransportBinary {
		res, err = r.sendOnSession(ctx, edges)
	} else {
		res, err = r.c.IngestBatch(ctx, edges, true)
	}
	if err != nil {
		return err
	}
	if res.Error != "" {
		return fmt.Errorf("streamworks: remote ingest: %s", res.Error)
	}
	return nil
}

// sendOnSession sends one batch on the ingest session, opening the session
// when there is none, and drops it when the batch fails.
func (r *Remote) sendOnSession(ctx context.Context, edges []StreamEdge) (*api.IngestResponse, error) {
	r.ingest.Lock()
	defer r.ingest.Unlock()
	if r.ctx.Err() != nil {
		return nil, ErrClosed
	}
	if r.session == nil {
		sctx, end := context.WithCancel(r.ctx)
		es, err := r.c.OpenBatchStream(sctx)
		if err != nil {
			end()
			return nil, err
		}
		r.session, r.endSession = es, end
	}
	res, err := r.session.SendBatch(ctx, edges)
	if err != nil {
		r.dropSession()
	}
	return res, err
}

// dropSession tears the ingest session down without waiting for the
// daemon, and returns once its receive goroutine has ended. The caller
// holds r.ingest.
func (r *Remote) dropSession() {
	if r.session == nil {
		return
	}
	r.endSession()
	r.session.Close()
	r.session, r.endSession = nil, nil
}

// Advance broadcasts an explicit stream-time signal to every daemon shard.
func (r *Remote) Advance(ctx context.Context, ts Timestamp) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	return r.c.Advance(ctx, ts)
}

// Metrics fetches the daemon's aggregated engine counters (the engine
// section of GET /v1/metrics).
func (r *Remote) Metrics(ctx context.Context) (Metrics, error) {
	m, err := r.c.Metrics(ctx)
	if err != nil {
		return Metrics{}, err
	}
	return m.Engine, nil
}

// remoteSub is one streaming match subscription.
type remoteSub struct {
	r      *Remote
	cancel context.CancelFunc
	stream *client.Subscription
	done   chan struct{}

	errMu sync.Mutex
	err   error
}

func (s *remoteSub) Done() <-chan struct{} { return s.done }

func (s *remoteSub) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *remoteSub) Close() error {
	s.r.mu.Lock()
	delete(s.r.subs, s)
	s.r.mu.Unlock()
	s.cancel()
	return s.stream.Close()
}

// Subscribe opens a streaming subscription for the query named by
// queryFilter ("" for all queries). The sink runs on a dedicated receive
// goroutine. Done closes when the server drains the stream, the subscriber
// is evicted for falling behind (resubscribe in that case), or Close is
// called; Err distinguishes transport failures from clean ends.
func (r *Remote) Subscribe(queryFilter string, sink MatchSink) (Subscription, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := r.c.SubscribeMatches(ctx, queryFilter)
	if err != nil {
		cancel()
		return nil, remoteErr(err, map[int]error{http.StatusNotFound: ErrUnknownQuery})
	}
	sub := &remoteSub{r: r, cancel: cancel, stream: stream, done: make(chan struct{})}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		cancel()
		stream.Close()
		return nil, ErrClosed
	}
	r.subs[sub] = struct{}{}
	r.mu.Unlock()
	go func() {
		defer close(sub.done)
		// The stream can end on its own (server drain, slow-consumer
		// eviction); drop the registry entry so long-lived Remotes that
		// resubscribe repeatedly do not accumulate dead subscriptions.
		defer func() {
			r.mu.Lock()
			delete(r.subs, sub)
			r.mu.Unlock()
		}()
		for {
			rep, err := stream.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && ctx.Err() == nil {
					sub.errMu.Lock()
					sub.err = err
					sub.errMu.Unlock()
				}
				return
			}
			sink.OnMatch(rep)
		}
	}()
	return sub, nil
}

func (r *Remote) checkOpen() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	return nil
}

// Close ends the ingest session, tears down every subscription (their Done
// closes once the receive goroutines finish) and marks the engine closed.
// The remote daemon keeps serving other clients. Idempotent.
func (r *Remote) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	subs := make([]*remoteSub, 0, len(r.subs))
	for sub := range r.subs {
		subs = append(subs, sub)
	}
	r.subs = make(map[*remoteSub]struct{})
	r.mu.Unlock()
	r.cancel() // a ProcessBatch waiting on the session returns now
	r.ingest.Lock()
	r.dropSession()
	r.ingest.Unlock()
	for _, sub := range subs {
		sub.cancel()
		sub.stream.Close()
	}
	return nil
}
