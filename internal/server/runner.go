package server

import (
	"context"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
)

// runner owns edge ingestion into the engine, and only that. The public
// engine is safe for concurrent use — control requests call it directly from
// their handlers and Sharded's own mutex orders them against batches and in
// the WAL — but edges still funnel through this one goroutine, because it is
// what the serving layer's ingest contract hangs on: a bounded queue whose
// fullness is the 429 admission signal (backpressure by shedding rather than
// by blocking request goroutines), FIFO order so a wait=1 sentinel completes
// after its data chunks, per-request result accounting, and the point where
// a chunk slice is known to be free for reuse.
type runner struct {
	eng *streamworks.Sharded

	// batches is the bounded ingest queue. Closing it (after the draining
	// flag stops producers) asks the loop to finish the queued work and exit.
	batches chan ingestBatch
	// stopped is closed when the loop has exited; receiving from it
	// establishes happens-before for direct engine access during shutdown.
	stopped chan struct{}

	// The runner's counts, in the server's registry.
	edgesIngested, batchesIngested *obs.Counter

	// Observability handles (all nil when disabled): the batch's queue wait
	// is measured once on dequeue and recorded per edge with ObserveN, so
	// per-edge segment means stay composable with the per-edge measurements
	// of the tiers below.
	obsClock obs.Clock
	obsWait  *obs.Histogram
}

// ingestBatch is one chunk of a streaming ingest request (the handler
// enqueues chunks as the body decodes; a request usually spans several).
// done is non-nil only on the final sentinel chunk of a waiting request; the
// runner answers it with the request's accumulated job, exactly once. enqNS
// is the wall-clock time the chunk's first edge was decoded, stamped only
// when observability is enabled — the ingest segment spans the chunk's
// decode plus its queue wait, everything between the daemon seeing the edge
// and the engine starting on it, and no more: a session's later chunks do
// not carry the time since it opened.
type ingestBatch struct {
	edges []graph.StreamEdge
	job   *ingestJob
	done  chan ingestJob
	enqNS int64
}

// ingestJob accumulates the outcome of one multi-chunk ingest request.
// Only the runner goroutine touches it between the first enqueue and the
// done send on the final chunk — chunk order is FIFO — so no lock is
// needed; the done send publishes the totals to the waiting handler.
type ingestJob struct {
	processed int
	err       error
}

func newRunner(eng *streamworks.Sharded, queueDepth int, reg *obs.Registry) *runner {
	if queueDepth <= 0 {
		queueDepth = 64
	}
	return &runner{
		eng:             eng,
		batches:         make(chan ingestBatch, queueDepth),
		stopped:         make(chan struct{}),
		edgesIngested:   reg.Counter("server_edges_ingested", "", ""),
		batchesIngested: reg.Counter("server_batches_ingested", "", ""),
	}
}

// loop is the edge driver. It exits once the batch queue is closed and
// drained.
func (r *runner) loop() {
	defer close(r.stopped)
	for b := range r.batches {
		r.process(b)
	}
}

func (r *runner) process(b ingestBatch) {
	if b.enqNS != 0 && r.obsWait != nil {
		r.obsWait.ObserveN(r.obsClock.Now()-b.enqNS, len(b.edges))
	}
	if len(b.edges) > 0 {
		// The arrival stamp rides the edge envelope down through routing and
		// the shard mailbox so the engine can stamp it onto any match this
		// edge completes — the per-match journey measurement.
		for i := range b.edges {
			b.edges[i].ArrivedWallNS = b.enqNS
		}
		// One ProcessBatch per chunk: one WAL frame and one pass through the
		// shard router, instead of a per-edge append.
		err := r.eng.ProcessBatch(context.Background(), b.edges)
		r.batchesIngested.Inc()
		if err == nil {
			r.edgesIngested.Add(uint64(len(b.edges)))
		}
		if b.job != nil {
			if err == nil {
				b.job.processed += len(b.edges)
			} else if b.job.err == nil {
				b.job.err = err
			}
		}
		putChunk(b.edges) // see chunkPool: nothing downstream holds the slice now
	}
	if b.done != nil {
		b.done <- *b.job
	}
}
