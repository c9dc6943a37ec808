package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/graph"
)

func testEdges() []graph.StreamEdge {
	return []graph.StreamEdge{{
		Edge: graph.Edge{ID: 1, Source: 10, Target: 20, Type: "flow", Timestamp: 1000},
	}}
}

func always() bool { return true }

func TestSendRetryingRetriesTransientFailures(t *testing.T) {
	var (
		mu     sync.Mutex
		bodies []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(body))
		n := len(bodies)
		mu.Unlock()
		switch n {
		case 1:
			http.Error(w, `{"error":"ingest queue full"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		default:
			w.Write([]byte(`{"accepted":1}`))
		}
	}))
	defer srv.Close()

	c := client.New(srv.URL)
	retries, err := sendRetrying(func() error {
		_, err := c.IngestBatch(context.Background(), testEdges(), true)
		return err
	}, client.IsRetryable, always, time.Minute)
	if err != nil {
		t.Fatalf("sendRetrying: %v", err)
	}
	if retries != 2 {
		t.Errorf("retries = %d, want 2", retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(bodies))
	}
	if bodies[0] == "" {
		t.Fatal("first attempt posted an empty body")
	}
	// Every retry re-posts the identical encoded batch: a failed attempt
	// cannot consume the edge payload.
	for i, b := range bodies[1:] {
		if b != bodies[0] {
			t.Errorf("attempt %d re-posted a different body", i+2)
		}
	}
}

func TestSendRetryingPermanentErrorFailsFast(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"bad edge json"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	c := client.New(srv.URL)
	retries, err := sendRetrying(func() error {
		_, err := c.IngestBatch(context.Background(), testEdges(), false)
		return err
	}, client.IsRetryable, always, time.Minute)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want *APIError with status 400", err)
	}
	if n := attempts.Load(); n != 1 || retries != 0 {
		t.Errorf("server saw %d attempts and %d retries, want 1 and 0 (400 is not retryable)", n, retries)
	}
}

// TestSendRetryingSurfacesTheLastErrorPastTheBudget: sustained overload is
// retried until the budget is spent, and then the final 429 comes back.
func TestSendRetryingSurfacesTheLastErrorPastTheBudget(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c := client.New(srv.URL)
	start := time.Now()
	retries, err := sendRetrying(func() error {
		_, err := c.IngestBatch(context.Background(), testEdges(), false)
		return err
	}, client.IsRetryable, always, 50*time.Millisecond)
	if !client.IsOverloaded(err) {
		t.Fatalf("err = %v, want the final 429 surfaced", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
		t.Errorf("gave up after %v, want just past the 50ms budget", elapsed)
	}
	if n := attempts.Load(); n < 2 || uint64(n) != retries+1 {
		t.Errorf("server saw %d attempts with %d retries, want ≥ 2 attempts, one more than the retries", n, retries)
	}
}

// TestSendRetryingWaitsForTheMatchStream: no attempt is made while the match
// stream is detached, and a stream that stays detached past the budget fails
// the send without one.
func TestSendRetryingWaitsForTheMatchStream(t *testing.T) {
	var (
		attached atomic.Bool
		sentAt   time.Time
	)
	send := func() error {
		if !attached.Load() {
			t.Error("send attempted while the match stream was detached")
		}
		sentAt = time.Now()
		return nil
	}
	attachAt := time.Now().Add(30 * time.Millisecond)
	time.AfterFunc(30*time.Millisecond, func() { attached.Store(true) })
	if _, err := sendRetrying(send, client.IsRetryable, attached.Load, time.Minute); err != nil {
		t.Fatalf("sendRetrying: %v", err)
	}
	if sentAt.Before(attachAt) {
		t.Errorf("sent %v before the stream attached", attachAt.Sub(sentAt))
	}

	sends := 0
	_, err := sendRetrying(func() error { sends++; return nil },
		client.IsRetryable, func() bool { return false }, 30*time.Millisecond)
	if err == nil || sends != 0 {
		t.Fatalf("detached past the budget: err = %v after %d sends, want an error and no send", err, sends)
	}
}

// TestSendRetryingStopsOnContextCancel: a cancelled request is not retried,
// however much budget is left.
func TestSendRetryingStopsOnContextCancel(t *testing.T) {
	release := make(chan struct{})
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		<-release
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	c := client.New(srv.URL)
	retries, err := sendRetrying(func() error {
		_, err := c.IngestBatch(ctx, testEdges(), false)
		return err
	}, client.IsRetryable, always, time.Minute)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := attempts.Load(); n > 1 || retries != 0 {
		t.Errorf("server saw %d attempts and %d retries, want at most 1 and 0", n, retries)
	}
}

// TestSendRetryingBacksOffExponentially: each retry waits at least twice as
// long as the one before it, starting from 5 ms.
func TestSendRetryingBacksOffExponentially(t *testing.T) {
	var at []time.Time
	busy := &client.APIError{Status: http.StatusTooManyRequests}
	send := func() error {
		at = append(at, time.Now())
		if len(at) < 6 {
			return busy
		}
		return nil
	}
	retries, err := sendRetrying(send, client.IsRetryable, always, time.Minute)
	if err != nil || retries != 5 {
		t.Fatalf("sendRetrying = %d retries, %v; want 5 retries, nil", retries, err)
	}
	want := 5 * time.Millisecond
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < want {
			t.Errorf("retry %d came %v after the previous attempt, want ≥ %v", i, gap, want)
		}
		want *= 2
	}
}
