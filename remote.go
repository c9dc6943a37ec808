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
// streamworksd daemon. Queries travel as the text DSL, edges as NDJSON or
// binary-frame batches (WithTransport), matches as a streaming subscription
// per Subscribe call.
type Remote struct {
	c    *client.Client
	info ServerInfo

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
		copts = append(copts, client.WithTransport(client.Transport(cfg.transport)))
	}
	c := client.New(baseURL, copts...)
	h, err := c.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("streamworks: connecting to %s: %w", baseURL, err)
	}
	return &Remote{c: c, info: *h, subs: make(map[*remoteSub]struct{})}, nil
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
// DSL, so q must be named), selective and frozen.
func (r *Remote) RegisterQuery(ctx context.Context, q *Query) error {
	return r.RegisterQueryWith(ctx, q, RegisterOptions{})
}

// RegisterQueryWith registers q with its own plan settings, which travel as
// URL parameters on POST /v1/queries; the daemon's engine performs the
// planning and, when adaptive is on, the runtime re-planning.
func (r *Remote) RegisterQueryWith(ctx context.Context, q *Query, opts RegisterOptions) error {
	if q == nil {
		return ErrNilQuery
	}
	if err := r.checkOpen(); err != nil {
		return err
	}
	_, err := r.c.RegisterQueryWith(ctx, q, api.RegisterOptions(opts))
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

// Process ships one edge to the daemon and waits until it has been routed
// to the shards.
func (r *Remote) Process(ctx context.Context, se StreamEdge) error {
	return r.ProcessBatch(ctx, []StreamEdge{se})
}

// ProcessBatch ships a batch of edges and waits until the batch has been
// routed to the shards. An overloaded daemon (HTTP 429) surfaces as an
// error the caller can test with client.IsOverloaded and retry.
func (r *Remote) ProcessBatch(ctx context.Context, edges []StreamEdge) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	res, err := r.c.IngestBatch(ctx, edges, true)
	if err != nil {
		return err
	}
	if res.Error != "" {
		return fmt.Errorf("streamworks: remote ingest: %s", res.Error)
	}
	return nil
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

// Close tears down every subscription (their Done closes once the receive
// goroutines finish) and marks the engine closed. The remote daemon keeps
// serving other clients. Idempotent.
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
	for _, sub := range subs {
		sub.cancel()
		sub.stream.Close()
	}
	return nil
}
