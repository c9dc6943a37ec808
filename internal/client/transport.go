package client

import (
	"context"
	"encoding/json"
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
// the server's ingest queue is full. Close ends the session and returns the
// server's summary (total edges routed to the shards).
type EdgeStream struct {
	pw      *io.PipeWriter
	done    chan edgeStreamResult
	buf     []byte
	scratch []byte
	started bool
}

type edgeStreamResult struct {
	resp *api.IngestResponse
	err  error
}

// OpenEdgeStream starts a persistent binary ingest session. The transport
// setting does not apply: sessions are always binary. Cancelling ctx tears
// the session down (Send fails, Close reports the error).
func (c *Client) OpenEdgeStream(ctx context.Context) (*EdgeStream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/stream", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	es := &EdgeStream{pw: pw, done: make(chan edgeStreamResult, 1)}
	go func() {
		resp, err := c.hc.Do(req)
		if err != nil {
			// Unblock any in-flight Send: the transport abandoned the body.
			pr.CloseWithError(err)
			es.done <- edgeStreamResult{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			err := apiError(resp)
			pr.CloseWithError(err)
			es.done <- edgeStreamResult{err: err}
			return
		}
		var out api.IngestResponse
		if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil {
			es.done <- edgeStreamResult{err: derr}
			return
		}
		es.done <- edgeStreamResult{resp: &out}
	}()
	return es, nil
}

// Send encodes edges as binary frames and writes them to the session,
// blocking while the server's queue exerts backpressure. A write error
// usually means the server refused or ended the session; call Close for the
// authoritative result.
func (es *EdgeStream) Send(edges []graph.StreamEdge) error {
	es.buf = es.buf[:0]
	if !es.started {
		es.buf = append(es.buf, wire.StreamMagic...)
		es.started = true
	}
	for _, se := range edges {
		es.buf, es.scratch = wire.AppendEdgeFrame(es.buf, es.scratch, se)
	}
	_, err := es.pw.Write(es.buf)
	return err
}

// Close ends the session body and waits for the server's summary. The
// response's Accepted is the authoritative count of edges routed to the
// shards.
func (es *EdgeStream) Close() (*api.IngestResponse, error) {
	es.pw.Close()
	r := <-es.done
	return r.resp, r.err
}
