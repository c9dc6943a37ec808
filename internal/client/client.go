// Package client is the typed Go client for the StreamWorks HTTP API
// (internal/server). It registers queries (serializing query.Graph values
// back into the text DSL), pushes edge batches — NDJSON or binary frames,
// selected with WithTransport — with the same wire encoders the server
// decodes with, holds persistent binary ingest sessions open (EdgeStream,
// whose SendBatch answers a batch with one frame instead of one request),
// streams match reports with incremental decoding, and fetches metrics. It
// does not retry: callers classify failures with IsRetryable and
// IsOverloaded and own their retry loop (cmd/loadgen's is the one in the
// repo). The end-to-end tests and cmd/loadgen drive live servers
// exclusively through it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/loader"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/wire"
)

// Client talks to one streamworksd instance.
type Client struct {
	base      string
	hc        *http.Client
	transport Transport
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for every request. The
// client must not enforce an overall request timeout if SubscribeMatches is
// used (match streams are long-lived); use per-call contexts instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the server at baseURL (e.g. "http://127.0.0.1:8090").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response decoded from the server's error envelope.
type APIError struct {
	Status  int
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
}

// IsOverloaded reports whether err is the server shedding ingest load
// (HTTP 429); the caller should back off and retry.
func IsOverloaded(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusTooManyRequests
}

// IsRetryable reports whether err is transient: server overload (429),
// unavailability (503 — draining, degraded durability, a restart in
// progress) or a transport-level failure (connection refused or reset while
// the daemon restarts). Permanent rejections (4xx validation errors) and
// context cancellation are not retryable.
func IsRetryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable
	}
	// Anything below the HTTP status layer — dial, reset, EOF mid-response —
	// is worth retrying against a daemon that may just be restarting.
	return true
}

func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var er struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		msg = er.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Health probes /healthz and returns the daemon's self-description: API
// version and uptime. A draining or unreachable daemon returns
// an error.
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	var out api.HealthResponse
	if err := c.roundTrip(ctx, http.MethodGet, "/healthz", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterQuery serializes q into the text DSL and registers it, selective.
func (c *Client) RegisterQuery(ctx context.Context, q *query.Graph) (*api.RegisterResponse, error) {
	return c.RegisterQueryWith(ctx, q, api.RegisterOptions{})
}

// RegisterQueryWith serializes q into the text DSL and registers it with
// its plan settings (decomposition strategy), carried as URL query
// parameters so the body stays pure DSL text.
func (c *Client) RegisterQueryWith(ctx context.Context, q *query.Graph, opts api.RegisterOptions) (*api.RegisterResponse, error) {
	path := "/v1/queries"
	params := url.Values{}
	if opts.Strategy != "" {
		params.Set("strategy", opts.Strategy)
	}
	if len(params) > 0 {
		path += "?" + params.Encode()
	}
	var out api.RegisterResponse
	err := c.roundTrip(ctx, http.MethodPost, path, "text/plain; charset=utf-8",
		strings.NewReader(query.Format(q)), &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// UnregisterQuery removes a registered query by name.
func (c *Client) UnregisterQuery(ctx context.Context, name string) error {
	return c.roundTrip(ctx, http.MethodDelete, "/v1/queries/"+url.PathEscape(name), "", nil, nil)
}

// Queries lists the registered queries.
func (c *Client) Queries(ctx context.Context) ([]api.QueryInfo, error) {
	var out []api.QueryInfo
	if err := c.roundTrip(ctx, http.MethodGet, "/v1/queries", "", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// IngestBatch encodes edges as NDJSON (the loader wire format) and posts
// them. wait=true blocks until the engine has processed the batch;
// wait=false returns as soon as the batch is queued. A full ingest queue
// surfaces as an *APIError with status 429 (check with IsOverloaded); any
// failure IsRetryable accepts may be retried by re-posting the same batch.
func (c *Client) IngestBatch(ctx context.Context, edges []graph.StreamEdge, wait bool) (api.IngestResponse, error) {
	var payload []byte
	contentType := "application/x-ndjson"
	if c.Transport() == TransportBinary {
		payload = encodeBinaryBatch(edges)
		contentType = wire.ContentTypeBinary
	} else {
		var buf bytes.Buffer
		if err := loader.WriteJSONL(&buf, edges); err != nil {
			return api.IngestResponse{}, err
		}
		payload = buf.Bytes()
	}
	path := "/v1/edges"
	if wait {
		path += "?wait=1"
	}
	var out api.IngestResponse
	if err := c.roundTrip(ctx, http.MethodPost, path, contentType, bytes.NewReader(payload), &out); err != nil {
		return api.IngestResponse{}, err
	}
	return out, nil
}

// Advance sends an explicit stream-time signal to the engine.
func (c *Client) Advance(ctx context.Context, ts graph.Timestamp) error {
	body, _ := json.Marshal(api.AdvanceRequest{TS: int64(ts)})
	return c.roundTrip(ctx, http.MethodPost, "/v1/advance", "application/json",
		bytes.NewReader(body), nil)
}

// Metrics fetches engine and serving-layer counters.
func (c *Client) Metrics(ctx context.Context) (*api.MetricsResponse, error) {
	var out api.MetricsResponse
	if err := c.roundTrip(ctx, http.MethodGet, "/v1/metrics", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Subscription is a live match stream. Read reports with Next until it
// returns io.EOF: the server ended the stream, either because it drained
// gracefully or because this subscriber fell too far behind and was evicted
// (resubscribe in that case). Always Close a subscription when done.
type Subscription struct {
	body io.ReadCloser
	next func() (export.MatchReport, error)
}

// SubscribeMatches opens a streaming match subscription in the client's
// transport (NDJSON by default, binary frames under
// WithTransport(TransportBinary)). queryName filters to one registered
// query; empty subscribes to all. Cancelling ctx tears the stream down
// (Next will return the context error).
func (c *Client) SubscribeMatches(ctx context.Context, queryName string) (*Subscription, error) {
	path := "/v1/matches"
	if queryName != "" {
		path += "?query=" + url.QueryEscape(queryName)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	binary := c.Transport() == TransportBinary
	if binary {
		req.Header.Set("Accept", wire.ContentTypeBinary)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	sub := &Subscription{body: resp.Body}
	if binary {
		rd := wire.NewReader(resp.Body)
		in := wire.NewInterner()
		sub.next = func() (export.MatchReport, error) {
			typ, payload, err := rd.Next()
			if err != nil {
				return export.MatchReport{}, err
			}
			if typ != wire.FrameMatch {
				return export.MatchReport{}, wire.ErrCorrupt
			}
			return in.DecodeMatch(payload)
		}
	} else {
		dec := json.NewDecoder(resp.Body)
		sub.next = func() (export.MatchReport, error) {
			var rep export.MatchReport
			err := dec.Decode(&rep)
			return rep, err
		}
	}
	return sub, nil
}

// Next blocks for the next match report. io.EOF signals a clean end of
// stream (server drain or slow-consumer eviction).
func (s *Subscription) Next() (export.MatchReport, error) { return s.next() }

// Close releases the underlying connection.
func (s *Subscription) Close() error { return s.body.Close() }
