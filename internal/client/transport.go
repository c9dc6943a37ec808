package client

import (
	"cmp"
	"context"
	"errors"
	"io"
	"net/http"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

// Transport selects the wire encoding for ingest bodies and match streams.
type Transport string

const (
	// TransportNDJSON is the default text transport: one JSON object per
	// line, human-readable, curl-able.
	TransportNDJSON Transport = "ndjson"
	// TransportBinary is the length-prefixed binary frame transport
	// (internal/wire): smaller bodies, no per-edge JSON encode/decode, and
	// the only encoding the persistent /v1/stream session speaks.
	TransportBinary Transport = "binary"
)

// WithTransport selects the wire encoding for IngestBatch and
// SubscribeMatches. The default is TransportNDJSON.
func WithTransport(t Transport) Option {
	return func(c *Client) { c.transport = t }
}

// Transport reports the client's configured wire encoding.
func (c *Client) Transport() Transport {
	if c.transport == "" {
		return TransportNDJSON
	}
	return c.transport
}

// encodeBinaryBatch renders edges as a complete binary ingest body:
// stream magic followed by one edge frame per edge. A first pass measures the
// frames, so the body is allocated once at its final size.
func encodeBinaryBatch(edges []graph.StreamEdge) []byte {
	var scratch []byte
	size := len(wire.StreamMagic)
	for _, se := range edges {
		scratch = wire.AppendEdge(scratch[:0], se)
		size += wire.FrameHeaderLen + len(scratch)
	}
	buf := append(make([]byte, 0, size), wire.StreamMagic...)
	for _, se := range edges {
		buf, scratch = wire.AppendEdgeFrame(buf, scratch, se)
	}
	return buf
}

// EdgeStream is a persistent ingest session: one long-lived POST /v1/stream
// request whose body is written incrementally, edge frames dispatched by the
// server as they arrive. Backpressure is the TCP window — Send blocks when
// the server's ingest queue is full. The response is a stream of the
// server's answers (wire.FrameAck): one per SendBatch, and one to the end of
// the body, which Close returns. A refusal is the session's last answer.
// An EdgeStream is for one goroutine at a time.
type EdgeStream struct {
	pr     *io.PipeReader
	pw     *io.PipeWriter
	cancel context.CancelFunc
	// acks carries the answers in order and closes when the response ends;
	// err, set before it closes, says why the response ended early.
	acks chan wire.Ack
	err  error
	// last is the latest answer read (answered once there is one), the one
	// Close returns when the body's end gets none: a refusal ended the
	// session first.
	last     wire.Ack
	answered bool
	buf      []byte
	scratch  []byte
	started  bool
}

// ackReadBuffer is what a session buffers of its response: an ack is a
// few bytes, and a longer one (a refusal's message) reads through.
const ackReadBuffer = 512

// errSessionOver fails a write to a session whose response has ended.
var errSessionOver = errors.New("client: ingest session ended")

// OpenEdgeStream starts a persistent binary ingest session, a stream: no
// edge cap, and the server dispatches a partial chunk whenever its decoder
// would wait for more. The transport setting does not apply: sessions are
// always binary. Cancelling ctx tears the session down (Send fails, Close
// reports the error).
func (c *Client) OpenEdgeStream(ctx context.Context) (*EdgeStream, error) {
	return c.openEdgeStream(ctx, "/v1/stream")
}

// OpenBatchStream starts a persistent binary ingest session of batches:
// each SendBatch is one batch, capped, chunked and answered as IngestBatch
// with wait would be for the same edges, so a caller trades one HTTP request
// per batch for one frame. Cancelling ctx tears the session down.
func (c *Client) OpenBatchStream(ctx context.Context) (*EdgeStream, error) {
	return c.openEdgeStream(ctx, "/v1/stream?batch=1")
}

func (c *Client) openEdgeStream(ctx context.Context, path string) (*EdgeStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, pr)
	if err != nil {
		cancel()
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	es := &EdgeStream{pr: pr, pw: pw, cancel: cancel, acks: make(chan wire.Ack, 1)}
	// A cancelled request waits for the transport to stop reading its body,
	// which reads on until the pipe closes.
	context.AfterFunc(ctx, func() { pr.CloseWithError(ctx.Err()) })
	go es.receive(ctx, c.hc, req)
	return es, nil
}

// receive runs the session's request and hands each answer of its response
// to acks.
func (es *EdgeStream) receive(ctx context.Context, hc *http.Client, req *http.Request) {
	defer close(es.acks)
	resp, err := hc.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			err = apiError(resp) // refused at admission
		} else {
			err = es.readAcks(ctx, resp.Body)
		}
	}
	es.err = err
	if err == nil {
		err = errSessionOver
	}
	// Unblock any in-flight Send: the server reads no more of the body.
	es.pr.CloseWithError(err)
}

func (es *EdgeStream) readAcks(ctx context.Context, body io.Reader) error {
	rd := wire.NewReaderSize(body, ackReadBuffer)
	for {
		typ, payload, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if typ != wire.FrameAck {
			return wire.ErrCorrupt
		}
		ack, err := wire.DecodeAck(payload)
		if err != nil {
			return err
		}
		select {
		case es.acks <- ack:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// write sends edges' frames, then a sync frame if sync is set, blocking
// while the server's queue exerts backpressure.
func (es *EdgeStream) write(edges []graph.StreamEdge, sync bool) error {
	es.buf = es.buf[:0]
	if !es.started {
		es.buf = append(es.buf, wire.StreamMagic...)
		es.started = true
	}
	for _, se := range edges {
		es.buf, es.scratch = wire.AppendEdgeFrame(es.buf, es.scratch, se)
	}
	if sync {
		es.buf = wire.AppendFrame(es.buf, wire.FrameSync, nil)
	}
	_, err := es.pw.Write(es.buf)
	return err
}

// next waits for the server's next answer: false once the response has
// ended.
func (es *EdgeStream) next() bool {
	ack, ok := <-es.acks
	if ok {
		es.last, es.answered = ack, true
	}
	return ok
}

// Send encodes edges as binary frames and writes them to the session,
// blocking while the server's queue exerts backpressure. A write error
// usually means the server refused or ended the session; call Close for the
// authoritative result.
func (es *EdgeStream) Send(edges []graph.StreamEdge) error {
	return es.write(edges, false)
}

// SendBatch sends edges and a sync frame, and waits for the server's answer
// for every edge sent since the previous sync. The answer and its error are
// IngestBatch's: a refusal is an *APIError (IsOverloaded and IsRetryable
// classify it), and it ends the session. So does the server's drain, whose
// 503 the next SendBatch returns. Cancelling ctx abandons the wait, tears
// the session down and returns ctx's error.
func (es *EdgeStream) SendBatch(ctx context.Context, edges []graph.StreamEdge) (*api.IngestResponse, error) {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, es.cancel)
		defer stop()
	}
	// A failed write means the response has ended or is ending: its answer,
	// if it has one left, says why.
	werr := es.write(edges, true)
	answered := es.next()
	switch {
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case !answered:
		return nil, cmp.Or(es.err, werr, errSessionOver)
	case werr != nil && es.last.Status < 300:
		return nil, werr
	}
	return ackResponse(es.last)
}

// Close ends the session body and waits for the server's last answer. The
// response's Accepted is the authoritative count of edges the session got
// to the engine.
func (es *EdgeStream) Close() (*api.IngestResponse, error) {
	es.pw.Close()
	defer es.cancel()
	for es.next() {
	}
	if es.err != nil {
		return nil, es.err
	}
	if !es.answered {
		return nil, errSessionOver
	}
	return ackResponse(es.last)
}

// ackResponse is an answer as IngestBatch returns the same one.
func ackResponse(a wire.Ack) (*api.IngestResponse, error) {
	if a.Status < 200 || a.Status > 299 {
		return nil, &APIError{Status: a.Status, Message: a.Error}
	}
	return &api.IngestResponse{Accepted: a.Accepted, Queued: a.Queued, Error: a.Error}, nil
}
