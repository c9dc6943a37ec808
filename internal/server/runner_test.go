package server

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// TestChunkRoundTripDoesNotAllocate: a chunk goes from getChunk through the
// ingester's buffer and the queue to the runner, which processes it and
// hands it back to the pool. The pool's handle travels the whole way, so
// once the pool and the engine's one-second window are warm the round trip
// allocates nothing. Each round moves the batch a second on, under new IDs.
func TestChunkRoundTripDoesNotAllocate(t *testing.T) {
	eng := streamworks.New(streamworks.WithEngineConfig(streamworks.EngineConfig{Retention: time.Second}))
	defer eng.Close()
	r := newRunner(eng, 1, obs.NewRegistry())
	edges := flowEdges(1, 256)
	job := &ingestJob{}
	round := func() {
		c := getChunk()
		*c = append(*c, edges...)
		r.batches <- ingestBatch{chunk: c, job: job}
		r.process(<-r.batches)
		for i := range edges {
			edges[i].Edge.ID += 256
			edges[i].Edge.Timestamp = edges[i].Edge.Timestamp.Add(time.Second)
		}
	}
	round()
	allocbudget.Check(t, "server.runner/chunk round trip", round)
	if want := (allocbudget.Runs + 2) * len(edges); job.err != nil || job.processed != want {
		t.Fatalf("runner processed %d edges (%v), want %d", job.processed, job.err, want)
	}
}
