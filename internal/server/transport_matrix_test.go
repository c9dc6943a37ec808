package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
)

// matrixWorkload is the shared workload for the transport-equivalence
// matrix: small enough that six cells stay fast, busy enough that every
// query produces matches.
func matrixWorkload() gen.Workload {
	cfg := gen.NetFlowConfig{
		Hosts:       150,
		Servers:     15,
		Edges:       1200,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        23,
	}
	return gen.NetFlowWorkload(cfg, time.Minute)
}

// TestTransportEquivalenceMatrix is the serving-path acceptance matrix: the
// canonical match set — keyed by (query, signature), the identity both
// transports serialize byte-identically — must be the same for every
// combination of ingest transport (NDJSON batches, binary batches, the
// persistent binary stream, binary batches synced on one session) and shard
// count, and must equal the independent oracle's (gen.Oracle).
func TestTransportEquivalenceMatrix(t *testing.T) {
	w := matrixWorkload()
	expected := gen.Oracle(w)
	if len(expected) == 0 {
		t.Fatal("degenerate workload: the oracle found no matches")
	}

	for _, transport := range []string{"ndjson", "binary", "stream", "batches"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", transport, shards), func(t *testing.T) {
				got := runTransportCell(t, w, transport, shards)
				if !got.Equal(expected) {
					t.Fatalf("match set diverges from the oracle's: got %d matches, want %d",
						len(got), len(expected))
				}
			})
		}
	}
}

// runTransportCell runs one matrix cell: a fresh server with the requested
// shard count, the workload ingested over the requested transport while a
// subscription (binary frames for the binary transports, NDJSON otherwise)
// collects the delivered match set.
func runTransportCell(t *testing.T, w gen.Workload, transport string, shards int) gen.MatchSet {
	t.Helper()
	srv := server.New(server.Config{
		Shard:            shard.Config{Shards: shards, Engine: w.Engine},
		SubscriberBuffer: 8192,
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var copts []client.Option
	if transport != "ndjson" {
		copts = append(copts, client.WithTransport(client.TransportBinary))
	}
	c := client.New(hs.URL, copts...)
	ctx := context.Background()

	for _, q := range w.Queries {
		if _, err := c.RegisterQuery(ctx, q); err != nil {
			t.Fatalf("registering %q: %v", q.Name(), err)
		}
	}

	sub, err := c.SubscribeMatches(ctx, "")
	if err != nil {
		t.Fatalf("subscribing: %v", err)
	}
	defer sub.Close()
	got := make(gen.MatchSet)
	recvDone := make(chan error, 1)
	go func() {
		for {
			rep, err := sub.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				recvDone <- err
				return
			}
			got.AddKey(rep.Query, rep.Signature)
		}
	}()

	const chunk = 400
	switch transport {
	case "ndjson", "binary":
		for i := 0; i < len(w.Edges); i += chunk {
			j := min(i+chunk, len(w.Edges))
			res, err := c.IngestBatch(ctx, w.Edges[i:j], true)
			if err != nil {
				t.Fatalf("ingesting batch at %d: %v", i, err)
			}
			if res.Accepted != j-i {
				t.Fatalf("batch at %d: accepted %d of %d", i, res.Accepted, j-i)
			}
		}
	case "stream":
		es, err := c.OpenEdgeStream(ctx)
		if err != nil {
			t.Fatalf("opening edge stream: %v", err)
		}
		for i := 0; i < len(w.Edges); i += chunk {
			j := min(i+chunk, len(w.Edges))
			if err := es.Send(w.Edges[i:j]); err != nil {
				t.Fatalf("stream send at %d: %v", i, err)
			}
		}
		res, err := es.Close()
		if err != nil {
			t.Fatalf("closing edge stream: %v", err)
		}
		if res.Accepted != len(w.Edges) {
			t.Fatalf("stream accepted %d of %d edges", res.Accepted, len(w.Edges))
		}
	case "batches":
		es, err := c.OpenBatchStream(ctx)
		if err != nil {
			t.Fatalf("opening batch stream: %v", err)
		}
		for i := 0; i < len(w.Edges); i += chunk {
			j := min(i+chunk, len(w.Edges))
			res, err := es.SendBatch(ctx, w.Edges[i:j])
			if err != nil {
				t.Fatalf("batch at %d: %v", i, err)
			}
			if res.Accepted != j-i {
				t.Fatalf("batch at %d: accepted %d of %d", i, res.Accepted, j-i)
			}
		}
		res, err := es.Close()
		if err != nil {
			t.Fatalf("closing batch stream: %v", err)
		}
		if res.Accepted != len(w.Edges) {
			t.Fatalf("session accepted %d of %d edges", res.Accepted, len(w.Edges))
		}
	default:
		t.Fatalf("unknown transport %q", transport)
	}

	// Graceful drain flushes the shards and ends the subscription cleanly.
	srv.Close()
	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatalf("subscription ended with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("subscription did not end after server drain")
	}
	return got
}
