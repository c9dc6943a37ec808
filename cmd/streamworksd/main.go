// Command streamworksd is the StreamWorks daemon: the continuous graph
// query engine, optionally sharded across cores, served over HTTP. Register
// queries in the text DSL, stream NDJSON edges at it, and subscribe to
// matches:
//
//	streamworksd -addr :8090 -retention 10m
//	curl -X POST --data-binary @query.swq  localhost:8090/v1/queries
//	curl -X POST --data-binary @edges.ndjson localhost:8090/v1/edges
//	curl -N 'localhost:8090/v1/matches?query=smurf-ddos'
//
// SIGINT/SIGTERM drain gracefully: queued edge batches flush through the
// shards and every match subscriber's stream ends cleanly before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "HTTP listen address")
		shards    = flag.Int("shards", 1, "number of engine shards; 1 runs the engine on the ingest goroutine with no mailbox hop (two shards measured slower than one on 2 CPUs; the default moves only if a shards benchmark lane shows a gain)")
		retention = flag.Duration("retention", 0, "sliding window width (0 = retain everything; query windows widen it)")
		slack     = flag.Duration("slack", 0, "out-of-order slack; which edges it drops as late is graph.Clock's rule (README: State and its bounds)")
		subBuffer = flag.Int("sub-buffer", 256, "per-subscriber match buffer; overflow evicts the subscriber")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")

		dataDir       = flag.String("data-dir", "", "write-ahead log directory (segments only; the retained segments are the window); restart with the same dir to recover state (empty disables durability)")
		fsync         = flag.String("fsync", "interval", "WAL fsync policy: always (sync every frame), interval (group commit every 50ms), off (page cache only)")
		snapshotEvery = flag.Int("snapshot-every", 0, "checkpoint the WAL every n ingested batches: start a new segment with a manifest, delete the segments the window has left behind; bounds replay beyond the window and the segment count (0 = default 4096; negative = by segment size only)")
		requireDur    = flag.Bool("require-durability", false, "refuse ingest with 503 while durability is degraded instead of continuing in-memory (needs -data-dir)")
		ingestTimeout = flag.Duration("ingest-timeout", 0, "bound on how long a wait=1 ingest request blocks before answering 503 (0 = unbounded)")

		obsOn = flag.Bool("obs", false, "enable clock reads: the per-segment, journey and detect-lag latency histograms (counters and gauges are always kept; all are exported at GET /metrics)")
	)
	flag.Parse()

	if _, err := wal.ParseFsyncPolicy(*fsync); err != nil {
		// Fail at boot, not as silently-degraded durability at first append.
		log.Fatalf("streamworksd: %v", err)
	}
	if *requireDur && *dataDir == "" {
		log.Fatalf("streamworksd: -require-durability needs -data-dir")
	}

	// The tuning values the daemon has no flag for — prune interval, mailbox
	// depth, watermark broadcast step, ingest queue depth, batch cap,
	// group-commit interval — are the owning packages'
	// constants: the only values any ledger run has measured.
	engine := core.Config{Retention: *retention, Slack: *slack, Obs: obs.Config{Enabled: *obsOn}}

	srv := server.New(server.Config{
		Shard:             shard.Config{Shards: *shards, Engine: engine},
		SubscriberBuffer:  *subBuffer,
		DataDir:           *dataDir,
		FsyncPolicy:       *fsync,
		SnapshotEvery:     *snapshotEvery,
		RequireDurability: *requireDur,
		IngestTimeout:     *ingestTimeout,
	})

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: profiling and the
		// observability surface stay off the public API (the API mux also
		// serves /metrics, but operators typically bind this one to loopback
		// and scrape here).
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pm.Handle("/metrics", srv.PromHandler())
		go func() {
			log.Printf("streamworksd: pprof/metrics listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("streamworksd: pprof serve: %v", err)
			}
		}()
	}
	hs := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() {
		log.Printf("streamworksd: listening on %s (api=%s shards=%d retention=%s slack=%s data-dir=%q fsync=%s obs=%v)",
			*addr, api.Version, *shards, *retention, *slack, *dataDir, *fsync, *obsOn)
		errc <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("streamworksd: serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("streamworksd: draining (flushing shards, closing subscribers)")
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("streamworksd: shutdown: %v", err)
	}
	log.Printf("streamworksd: bye")
}
