package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

func TestIsRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"overload-429", &APIError{Status: http.StatusTooManyRequests}, true},
		{"unavailable-503", &APIError{Status: http.StatusServiceUnavailable}, true},
		{"validation-400", &APIError{Status: http.StatusBadRequest}, false},
		{"conflict-409", &APIError{Status: http.StatusConflict}, false},
		{"transport", errors.New("connection refused"), true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
	}
	for _, c := range cases {
		if got := IsRetryable(c.err); got != c.want {
			t.Errorf("%s: IsRetryable=%v, want %v", c.name, got, c.want)
		}
	}
}

func testEdges() []graph.StreamEdge {
	return []graph.StreamEdge{{
		Edge: graph.Edge{ID: 1, Source: 10, Target: 20, Type: "flow", Timestamp: 1000},
	}}
}

func TestAPIErrorDecodesEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"degraded durability"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	_, err := New(srv.URL).IngestBatch(context.Background(), testEdges(), false)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusServiceUnavailable || ae.Message != "degraded durability" {
		t.Errorf("APIError = %+v, want status 503 and the decoded error envelope", ae)
	}
}

// TestIngestBatchSurfacesOverloadOnce: the client does not retry. A shed
// batch is posted once and comes back as a 429 the caller's own retry loop
// classifies as overload and as retryable.
func TestIngestBatchSurfacesOverloadOnce(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"ingest queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()

	_, err := New(srv.URL).IngestBatch(context.Background(), testEdges(), false)
	if !IsOverloaded(err) || !IsRetryable(err) {
		t.Fatalf("err = %v, want a 429 that is overloaded and retryable", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1", n)
	}
}

func TestIngestBatchPermanentErrorFailsFast(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"bad edge json"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	_, err := New(srv.URL).IngestBatch(context.Background(), testEdges(), false)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want *APIError with status 400", err)
	}
	if IsRetryable(err) || IsOverloaded(err) {
		t.Errorf("a 400 classified as transient: %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1", n)
	}
}

// TestIngestBatchStopsOnContextCancel: a request the server never answers
// ends when the caller's context does, with an error no retry loop retries.
func TestIngestBatchStopsOnContextCancel(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(srv.URL).IngestBatch(ctx, testEdges(), false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if IsRetryable(err) {
		t.Errorf("a cancelled request classified as retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("IngestBatch ignored cancellation for %v", elapsed)
	}
}

// TestSubscribeRefusesRetiredMatchFrame: a peer still sending the retired
// type-2 match frame, whose bindings also carried a vertex type and an
// attribute count, is refused as corrupt. The report sent here binds no
// vertex, so its payload reads the same in both layouts: the frame type
// alone refuses it.
func TestSubscribeRefusesRetiredMatchFrame(t *testing.T) {
	payload := wire.AppendMatch(nil, export.MatchReport{Query: "q", Signature: "0:1", EdgeIDs: []uint64{1}})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.Write(wire.AppendFrame(append([]byte(nil), wire.StreamMagic...), 2, payload))
	}))
	defer srv.Close()

	sub, err := New(srv.URL, WithTransport(TransportBinary)).SubscribeMatches(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if rep, err := sub.Next(); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("Next = (%+v, %v), want wire.ErrCorrupt", rep, err)
	}
}
