package main

import (
	"bytes"
	"context"
	"net"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
)

// TestExactlyOnceAcrossSIGKILL is the process-level crash-recovery
// acceptance test: a real streamworksd is SIGKILLed mid-stream and
// restarted over the same data dir, and the set of match signatures
// delivered across both incarnations must equal what an uninterrupted
// in-process run detects. The in-process crash tests (durable_test.go)
// cover the same property with fault injection; this one proves it with an
// actual kill -9 — no deferred functions, no flushes, page cache only.
func TestExactlyOnceAcrossSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real daemon; skipped with -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "streamworksd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building streamworksd: %v\n%s", err, out)
	}

	w := gen.NetFlowWorkload(gen.NetFlowConfig{
		Hosts:       250,
		Servers:     25,
		Edges:       3000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        42,
	}, time.Minute)
	ref, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no matches")
	}

	dataDir := t.TempDir()
	addr := freeAddr(t)
	var daemonLog bytes.Buffer
	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr,
			"-data-dir", dataDir,
			"-fsync", "interval",
		)
		cmd.Stdout = &daemonLog
		cmd.Stderr = &daemonLog
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting daemon: %v", err)
		}
		return cmd
	}
	daemon := start()
	defer func() {
		if daemon.Process != nil {
			daemon.Process.Kill()
			daemon.Wait()
		}
		if t.Failed() {
			t.Logf("daemon log:\n%s", daemonLog.String())
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cli := client.New("http://" + addr)
	// ingest retries transient failures until ctx ends, as loadgen does.
	ingest := func(edges []graph.StreamEdge) error {
		for {
			_, err := cli.IngestBatch(ctx, edges, true)
			if err == nil || !client.IsRetryable(err) || ctx.Err() != nil {
				return err
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitHealthy(t, ctx, cli)
	for _, q := range w.Queries {
		if _, err := cli.RegisterQuery(ctx, q); err != nil {
			t.Fatalf("RegisterQuery(%s): %v", q.Name(), err)
		}
	}

	// The collector mirrors loadgen -resubscribe: one long-lived goroutine
	// that reattaches the match stream whenever it breaks, flagging
	// attachment so the ingest side can hold off while nobody is listening
	// (matches delivered while no subscriber is attached reach no one, and
	// without a further restart nothing would redeliver them).
	var (
		mu       sync.Mutex
		set      = make(gen.MatchSet)
		attached atomic.Bool
		closing  atomic.Bool
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !closing.Load() {
			sub, err := cli.SubscribeMatches(context.Background(), "")
			if err != nil {
				time.Sleep(25 * time.Millisecond)
				continue
			}
			attached.Store(true)
			for {
				rep, err := sub.Next()
				if err != nil {
					break
				}
				mu.Lock()
				set.AddKey(rep.Query, rep.Signature)
				mu.Unlock()
			}
			attached.Store(false)
			sub.Close()
		}
	}()
	waitAttached(t, ctx, &attached)

	const batch = 64
	kill := (len(w.Edges) / 2 / batch) * batch
	for i := 0; i < len(w.Edges); i += batch {
		j := min(i+batch, len(w.Edges))
		if i == kill {
			// SIGKILL: no drain, no final checkpoint, no snapshot.
			if err := daemon.Process.Kill(); err != nil {
				t.Fatalf("kill -9: %v", err)
			}
			daemon.Wait()
			daemon = start()
			waitHealthy(t, ctx, cli)
			// Recovery must come back durable, with the workload's queries
			// re-registered from the log.
			h, err := cli.Health(ctx)
			if err != nil {
				t.Fatalf("health after restart: %v", err)
			}
			if h.Durability != "ok" {
				t.Fatalf("durability after restart: %q, want ok", h.Durability)
			}
			qs, err := cli.Queries(ctx)
			if err != nil {
				t.Fatalf("listing queries after restart: %v", err)
			}
			if len(qs) != len(w.Queries) {
				t.Fatalf("recovered %d queries, want %d", len(qs), len(w.Queries))
			}
			// Do not resume ingest until the subscriber is reattached: the
			// recovery backlog goes to the first subscriber, and matches
			// from new edges must have someone to reach.
			waitAttached(t, ctx, &attached)
		}
		if err := ingest(w.Edges[i:j]); err != nil {
			t.Fatalf("IngestBatch at %d: %v", i, err)
		}
	}

	// Graceful drain: SIGTERM flushes every queued batch and ends the match
	// streams cleanly after their final deliveries.
	daemon.Process.Signal(syscall.SIGTERM)
	daemon.Wait()
	waitSettled(t, &mu, set)
	closing.Store(true)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if !set.Equal(ref) {
		t.Fatalf("delivered across SIGKILL: %d match signatures, reference %d", len(set), len(ref))
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, ctx context.Context, cli *client.Client) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := cli.Health(hctx)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

func waitAttached(t *testing.T, ctx context.Context, attached *atomic.Bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if attached.Load() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("match subscriber never attached")
}

// waitSettled waits until the delivered set stops growing: the daemon
// process has exited, but the collector may still be draining buffered
// response bytes.
func waitSettled(t *testing.T, mu *sync.Mutex, set gen.MatchSet) {
	t.Helper()
	stable := 0
	last := -1
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(set)
		mu.Unlock()
		if n == last {
			stable++
			if stable >= 5 {
				return
			}
		} else {
			stable = 0
			last = n
		}
		time.Sleep(100 * time.Millisecond)
	}
}
