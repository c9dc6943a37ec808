package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/wire"
)

// stuckCaptureWriter is a streaming ResponseWriter whose Write blocks until
// released, then records everything written — a subscriber that stopped
// consuming, whose pipe drains after the hub has already evicted it.
type stuckCaptureWriter struct {
	hdr     http.Header
	release chan struct{}

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *stuckCaptureWriter) Header() http.Header { return w.hdr }
func (w *stuckCaptureWriter) WriteHeader(int)     {}
func (w *stuckCaptureWriter) Flush()              {}
func (w *stuckCaptureWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *stuckCaptureWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// TestSlowSubscriberEvictedBinaryStream is the binary-transport variant of
// the slow-subscriber acceptance scenario: a binary match stream that stops
// consuming is evicted without blocking ingest, and every byte it DID receive
// — including the frames flushed during teardown — forms a valid frame
// stream: magic, then whole decodable match frames, then a clean end.
func TestSlowSubscriberEvictedBinaryStream(t *testing.T) {
	srv, ts := newTestServer(t, Config{SubscriberBuffer: 1})

	resp := postDSL(t, ts.URL, query.Format(gen.SmurfQuery(10*time.Minute)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}

	sw := &stuckCaptureWriter{hdr: make(http.Header), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/v1/matches", nil)
	req.Header.Set("Accept", wire.ContentTypeBinary)
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
		t.Fatal("ingest stalled behind a stuck binary subscriber")
	}

	waitFor(t, 5*time.Second, func() bool { return srv.hub.evicted.Value() >= 1 })

	// Unstick the pipe: the handler finishes flushing what it had collected
	// and returns, because the hub closed the subscriber's channel.
	close(sw.release)
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("evicted binary subscriber's handler did not finish")
	}
	if got := sw.Header().Get("Content-Type"); got != wire.ContentTypeBinary {
		t.Fatalf("Content-Type = %q, want %q", got, wire.ContentTypeBinary)
	}
	if n := srv.hub.subscribers.Value(); n != 0 {
		t.Fatalf("subscribers after eviction = %d, want 0", n)
	}

	// The truncated stream the evicted subscriber saw must still be valid
	// frame-by-frame — eviction may cut the stream short, never mid-frame.
	rd := wire.NewReader(bytes.NewReader(sw.bytes()))
	frames := 0
	for {
		typ, payload, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		if typ != wire.FrameMatch {
			t.Fatalf("frame %d: type %d, want match", frames, typ)
		}
		if _, err := wire.DecodeMatch(payload); err != nil {
			t.Fatalf("frame %d: decoding match: %v", frames, err)
		}
		frames++
	}
	if frames == 0 {
		t.Fatal("evicted subscriber received no complete match frames")
	}
}
