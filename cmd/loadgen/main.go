// Command loadgen replays a generated StreamWorks workload (netflow, news,
// drift or many-queries) against a live streamworksd over HTTP and checks
// that the daemon delivered its matches. It drives the server exactly like
// a production feeder: the public streamworks.Connect backend for health,
// query registration, the push match subscription and metrics, plus the raw
// typed client for asynchronous edge batches with 429 backoff (the public
// Engine's ProcessBatch waits for routing, which a load generator must not).
// The -transport flag selects the ingest encoding: NDJSON batches, binary
// frame batches, or the persistent binary /v1/stream session.
//
//	loadgen -addr http://127.0.0.1:8090 -workload netflow -edges 100000
//	loadgen -workload many-queries -queries 300   # 300 generated variants, folded into the daemon's one DAG
//	loadgen -transport stream -wait -sigs out.sigs # persistent session; write the delivered match set
//	loadgen -dump edges.ndjson                     # write the stream for curl replay
//
// It is a load driver, not a measuring tool: it prints one summary line and
// exits non-zero when the run proves nothing — the match stream ended early
// or no match was delivered (every workload here has attacks or events woven
// in). Numbers come from the benchmark harness in benchmark/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8090", "server base URL")
		workload = flag.String("workload", "netflow", "workload to replay: netflow, news, drift or many-queries")
		queries  = flag.Int("queries", 0, "register this many generated query variants instead of the workload's own suite (0 keeps the suite; many-queries defaults to 200)")
		edges    = flag.Int("edges", 100_000, "background edges (netflow)")
		hosts    = flag.Int("hosts", 2000, "hosts (netflow)")
		articles = flag.Int("articles", 2000, "articles (news)")
		window   = flag.Duration("window", time.Minute, "query window")
		batch    = flag.Int("batch", 1024, "edges per ingest request")
		seed     = flag.Int64("seed", 1, "workload seed")
		dumpPath = flag.String("dump", "", "write the workload as NDJSON to this file and exit")

		transport = flag.String("transport", "ndjson", "ingest transport: ndjson, binary (framed batches) or stream (persistent binary session)")

		waitIngest  = flag.Bool("wait", false, "ingest with wait=1: each batch is routed (and WAL'd on a durable daemon) before the next is sent — required for exact crash-recovery comparisons")
		sigsPath    = flag.String("sigs", "", "write the delivered match-signature set (query<TAB>signature, sorted, deduplicated) to this file on exit")
		resubscribe = flag.Bool("resubscribe", false, "reconnect the match stream when it ends early (daemon restart, slow-consumer eviction) instead of failing the run")
	)
	flag.Parse()

	w := buildWorkload(*workload, *edges, *hosts, *articles, *window, *seed)
	if *queries > 0 {
		// Variant registration load: N generated near-duplicate standing
		// queries (cycled netflow/news patterns with window and predicate
		// jitter) in place of the workload's own suite — the deployment shape
		// the daemon's shared evaluation DAG folds into few nodes.
		w.Queries = gen.QueryVariants(*queries, *window)
	}
	if *dumpPath != "" {
		f, err := os.Create(*dumpPath)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		if err := w.NDJSON(f); err != nil {
			log.Fatalf("loadgen: encoding workload: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		log.Printf("loadgen: wrote %d edges to %s", len(w.Edges), *dumpPath)
		return
	}

	ctr := client.TransportNDJSON
	switch *transport {
	case "ndjson":
	case "binary", "stream":
		ctr = client.TransportBinary
	default:
		log.Fatalf("loadgen: unknown transport %q (want ndjson, binary or stream)", *transport)
	}

	c := client.New(*addr, client.WithTransport(ctr)) // no internal retry; ingest below owns it
	ctx := context.Background()
	rem := connect(ctx, *addr, 10*time.Second)
	log.Printf("loadgen: connected (api %s)", rem.ServerInfo().Version)

	for _, q := range w.Queries {
		if err := rem.RegisterQuery(ctx, q); err != nil {
			log.Fatalf("loadgen: registering %q: %v", q.Name(), err)
		}
	}

	// sigs deduplicates delivered matches by identity — redeliveries after a
	// daemon restart collapse, which is what makes crash and uninterrupted
	// runs directly comparable as sets.
	var (
		sinkMu  sync.Mutex
		matches int
		sigs    = make(map[string]struct{})
	)
	sink := streamworks.SinkFunc(func(rep streamworks.Match) {
		sinkMu.Lock()
		matches++
		if *sigsPath != "" {
			sigs[rep.Query+"\t"+rep.Signature] = struct{}{}
		}
		sinkMu.Unlock()
	})
	var (
		closing, attached atomic.Bool

		subMu  sync.Mutex
		curSub streamworks.Subscription
	)
	var attach func() error
	watch := func(s streamworks.Subscription) {
		<-s.Done()
		attached.Store(false)
		if closing.Load() {
			return
		}
		if !*resubscribe {
			// The subscription ended before we closed it — the server evicted
			// us for falling behind, or went away. Whatever is delivered from
			// here on is a truncated run, and a truncated run must not pass.
			log.Fatalf("loadgen: match stream ended early (evicted as a slow consumer?) and -resubscribe is off: err=%v", s.Err())
		}
		for !closing.Load() {
			if err := attach(); err == nil {
				log.Printf("loadgen: match stream ended, resubscribed")
				return
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	attach = func() error {
		s, err := rem.Subscribe("", sink)
		if err != nil {
			return err
		}
		subMu.Lock()
		curSub = s
		subMu.Unlock()
		attached.Store(true)
		go watch(s)
		return nil
	}
	if err := attach(); err != nil {
		log.Fatalf("loadgen: subscribing: %v", err)
	}

	// The persistent binary session: one long-lived POST /v1/stream whose
	// backpressure is the TCP window, so no 429/retry machinery applies —
	// Send simply blocks while the daemon's queue is full.
	var es *client.EdgeStream
	if *transport == "stream" {
		var err error
		es, err = c.OpenEdgeStream(ctx)
		if err != nil {
			log.Fatalf("loadgen: opening edge stream: %v", err)
		}
	}
	// ingest hands one chunk to the daemon through sendRetrying; two minutes
	// of sustained failure is fatal. A persistent session's Send is never
	// retried: its failure ends the session.
	var retries uint64
	ingest := func(chunk []graph.StreamEdge, wait bool) error {
		if es != nil {
			if len(chunk) == 0 {
				return nil // the final flush is EdgeStream.Close below
			}
			_, err := sendRetrying(func() error { return es.Send(chunk) },
				func(error) bool { return false }, attached.Load, 2*time.Minute)
			return err
		}
		n, err := sendRetrying(func() error {
			_, err := c.IngestBatch(ctx, chunk, wait)
			return err
		}, client.IsRetryable, attached.Load, 2*time.Minute)
		retries += n
		return err
	}

	for i := 0; i < len(w.Edges); i += *batch {
		if err := ingest(w.Edges[i:min(i+*batch, len(w.Edges))], *waitIngest); err != nil {
			log.Fatalf("loadgen: ingest: %v", err)
		}
	}
	// Flush: an empty wait batch (or, for the persistent session, closing it)
	// returns only after everything queued ahead has been processed by the
	// engine.
	if es != nil {
		res, err := es.Close()
		if err != nil {
			log.Fatalf("loadgen: closing edge stream: %v", err)
		}
		if res.Accepted != len(w.Edges) {
			log.Fatalf("loadgen: stream session accepted %d of %d edges", res.Accepted, len(w.Edges))
		}
	} else if err := ingest(nil, true); err != nil {
		log.Fatalf("loadgen: flush: %v", err)
	}

	emitted := settle(ctx, rem)
	closing.Store(true)
	subMu.Lock()
	sub := curSub
	subMu.Unlock()
	sub.Close()
	<-sub.Done()

	sinkMu.Lock()
	defer sinkMu.Unlock()
	fmt.Printf("workload=%s transport=%s edges=%d batch=%d retries=%d emitted=%d delivered=%d\n",
		w.Name, *transport, len(w.Edges), *batch, retries, emitted, matches)

	if *sigsPath != "" {
		lines := make([]string, 0, len(sigs))
		for k := range sigs {
			lines = append(lines, k)
		}
		sort.Strings(lines)
		var sb strings.Builder
		for _, l := range lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(*sigsPath, []byte(sb.String()), 0o644); err != nil {
			log.Fatalf("loadgen: writing %s: %v", *sigsPath, err)
		}
		log.Printf("loadgen: wrote %d distinct match signatures to %s", len(lines), *sigsPath)
	}
	if matches == 0 {
		// Every workload weaves attacks or events into its stream, so a run
		// that delivers nothing exercised nothing.
		log.Fatalf("loadgen: no match delivered for workload %s", w.Name)
	}
}

// sendRetrying makes send's attempts until one succeeds, fails with an error
// retryable rejects, or budget has passed since the call; it returns that
// attempt's error and the number of retries made. Transient failures — 429
// shed, 503 while draining or degraded, connection errors across a daemon
// restart — are retried with exponential backoff from 5 ms, capped near a
// second. Retries are driven here rather than inside the client so that every
// (re)send first waits for attached to report the match stream attached: a
// batch accepted by a freshly restarted daemon before the subscriber
// reattaches would have its matches delivered to no one, and nothing short of
// another restart would redeliver them — a silent hole in the signature set
// that crash-recovery comparisons diff against.
func sendRetrying(send func() error, retryable func(error) bool, attached func() bool, budget time.Duration) (uint64, error) {
	var retries uint64
	delay := 5 * time.Millisecond
	deadline := time.Now().Add(budget)
	for {
		for !attached() {
			if time.Now().After(deadline) {
				return retries, fmt.Errorf("match stream detached for too long")
			}
			time.Sleep(10 * time.Millisecond)
		}
		err := send()
		if err == nil || !retryable(err) || time.Now().After(deadline) {
			return retries, err
		}
		retries++
		time.Sleep(delay)
		if delay < time.Second {
			delay *= 2
		}
	}
}

func buildWorkload(name string, edges, hosts, articles int, window time.Duration, seed int64) gen.Workload {
	switch name {
	case "netflow":
		cfg := gen.DefaultNetFlowConfig()
		cfg.Edges = edges
		cfg.Hosts = hosts
		cfg.Servers = max(hosts/20, 1)
		cfg.Seed = seed
		return gen.NetFlowWorkload(cfg, window)
	case "news":
		cfg := gen.DefaultNewsConfig()
		cfg.Articles = articles
		cfg.Seed = seed
		return gen.NewsWorkload(cfg, window, 2)
	case "drift":
		return gen.BenchDriftWorkload(edges, hosts, window)
	case "many-queries":
		return gen.BenchManyQueriesWorkload(200, edges, hosts, window)
	default:
		log.Fatalf("loadgen: unknown workload %q (want netflow, news, drift or many-queries)", name)
		panic("unreachable")
	}
}

// connect dials the daemon through the public API, retrying until it is
// healthy or the timeout elapses.
func connect(ctx context.Context, addr string, timeout time.Duration) *streamworks.Remote {
	deadline := time.Now().Add(timeout)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		rem, err := streamworks.Connect(hctx, addr)
		cancel()
		if err == nil {
			return rem
		}
		if time.Now().After(deadline) {
			log.Fatalf("loadgen: server not healthy after %s: %v", timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// settle polls metrics until the emitted match count stops moving, so the
// matches of edges still queued in the daemon, and the fan-out, are
// delivered before the subscription is closed. It returns that count.
func settle(ctx context.Context, rem *streamworks.Remote) uint64 {
	var last uint64
	stable := 0
	deadline := time.Now().Add(15 * time.Second)
	for {
		m, err := rem.Metrics(ctx)
		if err != nil {
			log.Fatalf("loadgen: metrics: %v", err)
		}
		if m.MatchesEmitted == last {
			stable++
		} else {
			stable = 0
			last = m.MatchesEmitted
		}
		if stable >= 3 || time.Now().After(deadline) {
			return last
		}
		time.Sleep(150 * time.Millisecond)
	}
}
