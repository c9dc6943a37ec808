package streamworks_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
)

// TestRemoteBinaryCancelDropsSession: over TransportBinary, a ProcessBatch
// whose ctx is cancelled while the daemon has not answered returns ctx's
// error, not a retryable one, and tears its session down; the next call
// opens a new session and succeeds. The first session's handler reads the
// body and never answers, so only the cancel can end the call, and its read
// ends only when the session is torn down.
func TestRemoteBinaryCancelDropsSession(t *testing.T) {
	w := acceptanceWorkload(t)
	srv := server.New(server.Config{Shard: shard.Config{Shards: 2, Engine: w.Engine}})
	defer srv.Close()
	var sessions atomic.Int32
	torn := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/stream") && sessions.Add(1) == 1 {
			io.Copy(io.Discard, r.Body) // answer nothing; the read ends when the client hangs up
			close(torn)
			return
		}
		srv.ServeHTTP(rw, r)
	}))
	defer hs.Close()
	remote, err := streamworks.Connect(context.Background(), hs.URL, streamworks.WithTransport(streamworks.TransportBinary))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer remote.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = remote.ProcessBatch(ctx, w.Edges[:100])
	if !errors.Is(err, context.DeadlineExceeded) || client.IsRetryable(err) {
		t.Fatalf("ProcessBatch on a silent session: %v, want the ctx's deadline, not retryable", err)
	}
	select {
	case <-torn:
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled call left its session open")
	}
	if err := remote.ProcessBatch(context.Background(), w.Edges[:100]); err != nil {
		t.Fatalf("ProcessBatch after the cancel: %v", err)
	}
	if n := sessions.Load(); n != 2 {
		t.Fatalf("%d sessions opened, want 2", n)
	}
}

// TestRemoteRefusalReadsTheSameOnBothTransports: a batch over the daemon's
// cap fails with the same *client.APIError whether it was posted (NDJSON)
// or sent on the ingest session (binary), and the call after it succeeds:
// the refusal ended the session, and the next call opened another.
func TestRemoteRefusalReadsTheSameOnBothTransports(t *testing.T) {
	w := acceptanceWorkload(t)
	var refusals []string
	for _, transport := range []streamworks.Transport{streamworks.TransportNDJSON, streamworks.TransportBinary} {
		srv := server.New(server.Config{Shard: shard.Config{Shards: 2, Engine: w.Engine}, MaxBatchEdges: 50})
		hs := httptest.NewServer(srv)
		remote, err := streamworks.Connect(context.Background(), hs.URL, streamworks.WithTransport(transport))
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		err = remote.ProcessBatch(context.Background(), w.Edges[:80])
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge || client.IsRetryable(err) {
			t.Fatalf("%s: oversized batch: %v, want a 413 *client.APIError", transport, err)
		}
		refusals = append(refusals, err.Error())
		if err := remote.ProcessBatch(context.Background(), w.Edges[80:120]); err != nil {
			t.Fatalf("%s: the batch after the refusal: %v", transport, err)
		}
		remote.Close()
		srv.Close()
		hs.Close()
	}
	if refusals[0] != refusals[1] {
		t.Fatalf("the refusal reads %q over NDJSON, %q over binary", refusals[0], refusals[1])
	}
}
