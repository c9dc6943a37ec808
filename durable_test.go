package streamworks_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/testutil/faultfs"
	"github.com/streamworks/streamworks/internal/wal"
	"github.com/streamworks/streamworks/internal/wire"
)

// collectSet returns a sink recording every delivered (query, signature)
// into set under mu, for tests whose engine delivers on more than one
// goroutine (a recovered backlog is delivered on the subscriber's).
func collectSet(mu *sync.Mutex, set gen.MatchSet) streamworks.MatchSink {
	return streamworks.SinkFunc(func(m streamworks.Match) {
		mu.Lock()
		set.AddKey(m.Query, m.Signature)
		mu.Unlock()
	})
}

// oncePerRun wraps sink for one engine's lifetime: redelivery is what a
// restart may do, never a running engine.
func oncePerRun(t *testing.T, run string, sink streamworks.MatchSink) streamworks.MatchSink {
	var mu sync.Mutex
	seen := make(gen.MatchSet)
	return streamworks.SinkFunc(func(m streamworks.Match) {
		mu.Lock()
		before := len(seen)
		seen.AddKey(m.Query, m.Signature)
		dup := len(seen) == before
		mu.Unlock()
		if dup {
			t.Errorf("%s delivered %s %s twice", run, m.Query, m.Signature)
		}
		sink.OnMatch(m)
	})
}

func registerAll(t *testing.T, eng streamworks.Engine, w gen.Workload) {
	t.Helper()
	ctx := context.Background()
	for _, q := range w.Queries {
		if err := eng.RegisterQuery(ctx, q); err != nil {
			t.Fatalf("RegisterQuery(%s): %v", q.Name(), err)
		}
	}
}

func streamBatches(t *testing.T, eng streamworks.Engine, w gen.Workload, from, to, batch int) {
	t.Helper()
	ctx := context.Background()
	for i := from; i < to; i += batch {
		j := min(i+batch, to)
		if err := eng.ProcessBatch(ctx, w.Edges[i:j]); err != nil {
			t.Fatalf("ProcessBatch at %d: %v", i, err)
		}
	}
}

// lateQuery is a query registered mid-stream: after the first `at` edges
// of the workload, which must be a multiple of the batch size.
type lateQuery struct {
	q  *streamworks.Query
	at int
}

// streamWithLate is streamBatches over [from, to) that registers late at its
// place in the stream when the range covers it.
func streamWithLate(t *testing.T, eng streamworks.Engine, w gen.Workload, from, to, batch int, late *lateQuery) {
	t.Helper()
	if late == nil || late.at < from || late.at >= to {
		streamBatches(t, eng, w, from, to, batch)
		return
	}
	streamBatches(t, eng, w, from, late.at, batch)
	if err := eng.RegisterQuery(context.Background(), late.q); err != nil {
		t.Fatalf("RegisterQuery(%s) after %d edges: %v", late.q.Name(), late.at, err)
	}
	streamBatches(t, eng, w, late.at, to, batch)
}

// crashBatch is the batch size runCrashRestart streams in.
const crashBatch = 64

// halfway is the last whole batch boundary at or before the middle of w.
func halfway(w gen.Workload) int { return len(w.Edges) / 2 / crashBatch * crashBatch }

// runCrashRestart streams w through a durable engine, freezes the
// filesystem after the first crash edges, a multiple of crashBatch (the
// in-process stand-in for SIGKILL: everything already written stays on
// disk, nothing further can reach it), restarts from the same data dir with
// the real filesystem and finishes the stream. It returns the union of both
// runs' delivered match sets — which exactly-once-under-set-semantics says
// must equal an uninterrupted run's. late, if not nil, is registered before
// the crash, at its place in the stream.
func runCrashRestart(t *testing.T, w gen.Workload, late *lateQuery, crash int) gen.MatchSet {
	t.Helper()
	dir := t.TempDir()
	ffs := faultfs.New()
	base := []streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(dir),
		streamworks.WithFsyncPolicy("off"),
		streamworks.WithSnapshotEvery(8),
	}

	var mu sync.Mutex
	union := make(gen.MatchSet)
	sink := collectSet(&mu, union)

	eng := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	registerAll(t, eng, w)
	sub, err := eng.Subscribe("", oncePerRun(t, "the run before the crash", sink))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	streamWithLate(t, eng, w, 0, crash, crashBatch, late)
	if d := eng.Durability(); d.Mode != "ok" || d.Frames == 0 {
		t.Fatalf("pre-crash durability: %+v", d)
	}
	// Freeze the disk first, then tear the engine down: Close can no longer
	// checkpoint or snapshot, so the directory holds exactly what a SIGKILL
	// at this instant would have left.
	ffs.CrashNow()
	eng.Close()
	<-sub.Done()

	// Restart over the same directory. Recovery must have re-registered the
	// workload's queries from the log...
	eng2 := streamworks.New(base...)
	defer eng2.Close()
	if err := eng2.RegisterQuery(context.Background(), w.Queries[0]); !errors.Is(err, streamworks.ErrDuplicateQuery) {
		t.Fatalf("re-registering %q after recovery: %v, want ErrDuplicateQuery", w.Queries[0].Name(), err)
	}
	if d := eng2.Durability(); d.Mode != "ok" {
		t.Fatalf("post-restart durability: %+v", d)
	}
	// ...and the first subscriber receives the backlog: matches derived
	// before the crash whose delivery was never acknowledged.
	sub2, err := eng2.Subscribe("", oncePerRun(t, "the restarted run", sink))
	if err != nil {
		t.Fatalf("Subscribe after restart: %v", err)
	}
	streamBatches(t, eng2, w, crash, len(w.Edges), crashBatch)
	eng2.Close()
	<-sub2.Done()

	mu.Lock()
	defer mu.Unlock()
	return union
}

func TestCrashRecoveryExactlyOnceNetflow(t *testing.T) {
	w := acceptanceWorkload(t)
	ref, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no matches")
	}
	union := runCrashRestart(t, w, nil, halfway(w))
	if !union.Equal(ref) {
		t.Fatalf("crash-restart union diverged: %d matches, reference %d", len(union), len(ref))
	}
}

func TestCrashRecoveryExactlyOnceDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("drift crash-recovery soak; skipped with -short")
	}
	w := gen.BenchDriftWorkload(8000, 400, 20*time.Second)
	ref, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no matches")
	}
	union := runCrashRestart(t, w, nil, halfway(w))
	if !union.Equal(ref) {
		t.Fatalf("crash-restart union diverged: %d matches, reference %d", len(union), len(ref))
	}
}

// TestCrashRecoveryUnderLateness crashes a stream with stragglers, one edge
// in six moved back by up to twice the slack, at a batch drawn from a
// seed. Edges behind the watermark are dropped before they reach the
// engine, on the run before the crash, by the log's replay and after the
// restart alike, so the union of both runs is the oracle's set.
func TestCrashRecoveryUnderLateness(t *testing.T) {
	w := gen.BenchDriftWorkload(3000, 60, time.Second)
	w.Engine.Slack = 250 * time.Millisecond
	rng := rand.New(rand.NewSource(52))
	for i := range w.Edges {
		if rng.Intn(6) == 0 {
			w.Edges[i].Edge.Timestamp = w.Edges[i].Edge.Timestamp.Add(-time.Duration(rng.Int63n(int64(2 * w.Engine.Slack))))
		}
	}
	crash := (1 + rng.Intn(len(w.Edges)/crashBatch-1)) * crashBatch
	ref := gen.Oracle(w)
	if len(ref) == 0 {
		t.Fatal("the oracle finds no match; the stream proves nothing")
	}
	union := runCrashRestart(t, w, nil, crash)
	if !union.Equal(ref) {
		t.Fatalf("crash after %d edges: the union of both runs holds %d matches, the oracle %d", crash, len(union), len(ref))
	}
}

// smurfLegs is 32 smurf legs (an echo request, then its reply to a third
// host) on distinct hosts, one edge per millisecond from start, edge IDs
// from firstID: 64 edges and 32 matches.
func smurfLegs(firstID int, start streamworks.Timestamp) []streamworks.StreamEdge {
	edges := make([]streamworks.StreamEdge, 0, 64)
	for i := 0; i < 64; i++ {
		src := graph.VertexID(3*(i/2) + i%2 + 1)
		typ := gen.EdgeICMPReq
		if i%2 == 1 {
			typ = gen.EdgeICMPReply
		}
		edges = append(edges, streamworks.StreamEdge{
			Edge:       graph.Edge{ID: graph.EdgeID(firstID + i), Source: src, Target: src + 1, Type: typ, Timestamp: start.Add(time.Duration(i) * time.Millisecond)},
			SourceType: gen.TypeHost, TargetType: gen.TypeHost,
		})
	}
	return edges
}

// TestLateBatchIsNeitherLoggedNorReplayed: a batch of 64 edges an hour
// behind the watermark is counted in edges_dropped before the write-ahead
// append, so the log does not grow by a byte for it, and a crash-restart
// replays only the in-order batch and recovers the match set it delivered.
func TestLateBatchIsNeitherLoggedNorReplayed(t *testing.T) {
	ctx := context.Background()
	start := graph.TimestampFromTime(time.Date(2013, 6, 22, 12, 0, 0, 0, time.UTC))
	inOrder, late := smurfLegs(1, start), smurfLegs(101, start.Add(-time.Hour))
	dir := t.TempDir()
	ffs := faultfs.New()
	base := []streamworks.Option{
		streamworks.WithEngineConfig(streamworks.EngineConfig{Retention: time.Minute}),
		streamworks.WithDataDir(dir),
		streamworks.WithFsyncPolicy("off"),
	}
	var mu sync.Mutex
	before, after := make(gen.MatchSet), make(gen.MatchSet)
	eng := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	if err := eng.RegisterQuery(ctx, gen.SmurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe("", collectSet(&mu, before))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessBatch(ctx, inOrder); err != nil {
		t.Fatal(err)
	}
	logged := eng.Durability().Bytes
	lateCopy := slices.Clone(late)
	if err := eng.ProcessBatch(ctx, late); err != nil {
		t.Fatal(err)
	}
	if grown := eng.Durability().Bytes - logged; grown != 0 {
		t.Errorf("the log grew by %d bytes for a batch of late edges", grown)
	}
	if !reflect.DeepEqual(late, lateCopy) {
		t.Errorf("ProcessBatch changed the caller's batch")
	}
	if m, _ := eng.Metrics(ctx); m.EdgesDropped != 64 || m.EdgesProcessed != 64 {
		t.Errorf("%d edges dropped and %d processed, want 64 and 64", m.EdgesDropped, m.EdgesProcessed)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	ffs.CrashNow()
	eng.Close()
	<-sub.Done()

	eng2 := streamworks.New(base...)
	defer eng2.Close()
	sub2, err := eng2.Subscribe("", collectSet(&mu, after))
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := eng2.Metrics(ctx); m.EdgesDropped != 0 || m.EdgesProcessed != 64 {
		t.Errorf("recovery replayed %d edges and dropped %d, want the 64 in order and none", m.EdgesProcessed, m.EdgesDropped)
	}
	eng2.Close()
	<-sub2.Done()
	mu.Lock()
	defer mu.Unlock()
	if len(before) != 32 || !after.Equal(before) {
		t.Errorf("%d matches delivered before the crash, %d recovered after it; want the same 32", len(before), len(after))
	}
}

// TestCrashRecoveryMidStreamRegistration crashes a stream several windows
// long, after a query was registered part-way through it and checkpoints
// have deleted segments on either side of that registration. Recovery must
// put the registration back at its place in the stream: a query replayed
// ahead of the window would match edges it never saw live. The crash comes
// three retentions in, so the retained log no longer holds the first two:
// the union of what was delivered before the crash and after the restart
// must be what the uninterrupted run delivers, and neither run may deliver
// anything twice.
func TestCrashRecoveryMidStreamRegistration(t *testing.T) {
	w := gen.NetFlowWorkload(gen.NetFlowConfig{
		Hosts:       250,
		Servers:     25,
		Edges:       6000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     10 * time.Millisecond,
		ContactSkew: 1.4,
		Seed:        42,
	}, 10*time.Second)
	// The smurf query (most of the matches) arrives after four checkpoints'
	// worth of batches and one batch short of the fifth, half a window
	// before the crash: the newest manifest before the crash lists it, the
	// oldest retained one does not.
	late := &lateQuery{q: w.Queries[0], at: 2496}
	w.Queries = w.Queries[1:]
	var mu sync.Mutex
	ref := make(gen.MatchSet)
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	registerAll(t, eng, w)
	sub, err := eng.Subscribe("", oncePerRun(t, "the uninterrupted run", collectSet(&mu, ref)))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	streamWithLate(t, eng, w, 0, len(w.Edges), 64, late)
	eng.Close()
	<-sub.Done()
	lateMatches := 0
	for k := range ref {
		if strings.HasPrefix(k, late.q.Name()+"\x1f") {
			lateMatches++
		}
	}
	if lateMatches == 0 {
		t.Fatalf("the uninterrupted run produced no %s match", late.q.Name())
	}
	union := runCrashRestart(t, w, late, halfway(w))
	if !union.Equal(ref) {
		t.Fatalf("crash-restart union diverged: %d matches, uninterrupted run %d", len(union), len(ref))
	}
}

// TestGracefulRestartNoRedelivery pins the stronger guarantee of a clean
// shutdown: Close checkpoints every delivered match, so a restart over the
// same directory redelivers nothing — strict exactly-once, not just
// exactly-once under set semantics.
func TestGracefulRestartNoRedelivery(t *testing.T) {
	w := acceptanceWorkload(t)
	ref, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	dir := t.TempDir()
	base := []streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(dir),
		streamworks.WithFsyncPolicy("off"),
	}
	var mu sync.Mutex
	first, second := make(gen.MatchSet), make(gen.MatchSet)

	const batch = 64
	half := (len(w.Edges) / 2 / batch) * batch
	eng := streamworks.New(base...)
	registerAll(t, eng, w)
	sub, err := eng.Subscribe("", collectSet(&mu, first))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	streamBatches(t, eng, w, 0, half, batch)
	eng.Close()
	<-sub.Done()

	eng2 := streamworks.New(base...)
	defer eng2.Close()
	sub2, err := eng2.Subscribe("", collectSet(&mu, second))
	if err != nil {
		t.Fatalf("Subscribe after restart: %v", err)
	}
	// A graceful shutdown leaves no backlog: nothing may have been
	// delivered by the act of subscribing.
	mu.Lock()
	backlog := len(second)
	mu.Unlock()
	if backlog != 0 {
		t.Fatalf("graceful restart redelivered %d matches on subscribe", backlog)
	}
	streamBatches(t, eng2, w, half, len(w.Edges), batch)
	eng2.Close()
	<-sub2.Done()

	mu.Lock()
	defer mu.Unlock()
	union := make(gen.MatchSet)
	for k := range first {
		union[k] = struct{}{}
	}
	for k := range second {
		if _, dup := first[k]; dup {
			t.Errorf("match redelivered across graceful restart: %q", k)
		}
		union[k] = struct{}{}
	}
	if !union.Equal(ref) {
		t.Fatalf("graceful-restart union diverged: %d matches, reference %d", len(union), len(ref))
	}
}

// TestCancelledBatchThenCloseNoRedelivery: a batch cut short by its context
// has still delivered matches, and a graceful Close must acknowledge those
// too. The restart replays the whole logged batch, so the matches past the
// cancellation point arrive then — each match once, none lost.
func TestCancelledBatchThenCloseNoRedelivery(t *testing.T) {
	w := acceptanceWorkload(t)
	ref, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	base := []streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(t.TempDir()),
		streamworks.WithFsyncPolicy("off"),
	}
	var mu sync.Mutex
	first, second := make(gen.MatchSet), make(gen.MatchSet)

	eng := streamworks.New(base...)
	registerAll(t, eng, w)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	record := collectSet(&mu, first)
	sub, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
		record.OnMatch(m)
		cancel() // mid-batch, with a match delivered
	}))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	half := len(w.Edges) / 2
	// The engine stops at the cancellation.
	err = eng.ProcessBatch(ctx, w.Edges[:half])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessBatch under a context cancelled by the sink: %v", err)
	}
	eng.Close()
	<-sub.Done()
	if len(first) == 0 {
		t.Fatal("nothing was delivered before the cancellation")
	}

	eng2 := streamworks.New(base...)
	defer eng2.Close()
	sub2, err := eng2.Subscribe("", collectSet(&mu, second))
	if err != nil {
		t.Fatalf("Subscribe after restart: %v", err)
	}
	streamBatches(t, eng2, w, half, len(w.Edges), 64)
	eng2.Close()
	<-sub2.Done()

	for k := range first {
		if _, dup := second[k]; dup {
			t.Errorf("match redelivered after a graceful restart: %q", k)
		}
		second[k] = struct{}{}
	}
	if !second.Equal(ref) {
		t.Fatalf("both runs delivered %d matches, reference %d", len(second), len(ref))
	}
}

// TestWALDegradationKeepsServing drives every injected disk pathology
// through a full workload: the WAL must flip to degraded mode, stop
// touching the disk, and the engine must keep detecting exactly the
// reference match set in memory.
func TestWALDegradationKeepsServing(t *testing.T) {
	w := acceptanceWorkload(t)
	ref, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	cases := []struct {
		name string
		opts func(dir string) []streamworks.Option
		arm  func(ffs *faultfs.FS)
	}{
		{
			name: "disk-full",
			arm:  func(ffs *faultfs.FS) { ffs.SetDiskFull(true) },
		},
		{
			name: "fsync-error",
			opts: func(string) []streamworks.Option {
				return []streamworks.Option{streamworks.WithFsyncPolicy("always")}
			},
			arm: func(ffs *faultfs.FS) { ffs.FailFsync(errors.New("injected fsync failure")) },
		},
		{
			name: "short-write",
			arm:  func(ffs *faultfs.FS) { ffs.SetWriteBudget(512) },
		},
		{
			name: "bad-fsync-policy",
			opts: func(string) []streamworks.Option {
				// Degraded from birth: the WAL never opens at all.
				return []streamworks.Option{streamworks.WithFsyncPolicy("bogus")}
			},
			arm: func(*faultfs.FS) {},
		},
		{
			name: "v1-data-dir",
			opts: func(dir string) []streamworks.Option {
				// Degraded from birth too: the log refuses a directory in
				// another format version (and leaves it alone; internal/wal
				// checks that) rather than guess at its contents.
				if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), []byte("SWWAL001"), 0o644); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			arm: func(*faultfs.FS) {},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faultfs.New()
			dir := t.TempDir()
			opts := []streamworks.Option{
				streamworks.WithEngineConfig(w.Engine),
				streamworks.WithDataDir(dir),
				streamworks.WithWALFS(ffs),
			}
			if tc.opts != nil {
				opts = append(opts, tc.opts(dir)...)
			}
			eng := streamworks.New(opts...)
			defer eng.Close()
			registerAll(t, eng, w)
			var mu sync.Mutex
			set := make(gen.MatchSet)
			sub, err := eng.Subscribe("", collectSet(&mu, set))
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			// Arm the fault only after registration so the failure hits the
			// ingest path mid-stream, not the constructor.
			tc.arm(ffs)
			streamBatches(t, eng, w, 0, len(w.Edges), 64)
			if d := eng.Durability(); d.Mode != "degraded" {
				t.Fatalf("durability mode after %s: %q, want degraded (%+v)", tc.name, d.Mode, d)
			}
			eng.Close()
			<-sub.Done()
			if !set.Equal(ref) {
				t.Fatalf("degraded engine diverged: %d matches, reference %d", len(set), len(ref))
			}
		})
	}
}

// TestShortWriteLeavesRecoverableTornTail is the full fault → crash →
// recover arc: an injected short write leaves a torn frame on disk and
// degrades the engine; a restart over the directory truncates the torn
// tail, counts it, and still recovers everything up to the last whole
// frame.
func TestShortWriteLeavesRecoverableTornTail(t *testing.T) {
	w := acceptanceWorkload(t)
	dir := t.TempDir()
	ffs := faultfs.New()
	eng := streamworks.New(
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(dir),
		streamworks.WithFsyncPolicy("off"),
		streamworks.WithWALFS(ffs),
	)
	registerAll(t, eng, w)
	// Enough budget for a couple of edge batches, then a frame is cut off
	// mid-write — the torn tail a real crash leaves.
	ffs.SetWriteBudget(4096)
	streamBatches(t, eng, w, 0, 512, 64)
	if d := eng.Durability(); d.Mode != "degraded" || d.AppendErrors == 0 {
		t.Fatalf("short write did not degrade: %+v", d)
	}
	eng.Close()

	eng2 := streamworks.New(
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(dir),
		streamworks.WithFsyncPolicy("off"),
	)
	defer eng2.Close()
	d := eng2.Durability()
	if d.Mode != "ok" {
		t.Fatalf("recovery after torn tail: mode %q, want ok (%+v)", d.Mode, d)
	}
	if d.TornTailTruncations != 1 {
		t.Fatalf("torn-tail truncations: %d, want 1 (%+v)", d.TornTailTruncations, d)
	}
	// The registrations landed within budget, so recovery rebuilt them.
	if err := eng2.RegisterQuery(context.Background(), w.Queries[0]); !errors.Is(err, streamworks.ErrDuplicateQuery) {
		t.Fatalf("re-registering after torn-tail recovery: %v, want ErrDuplicateQuery", err)
	}
}

// TestBacklogNeverOverlapsLiveDelivery: a recovered backlog is handed to
// its subscriber under the lock live deliveries take, so a sink is never
// entered twice at once even when a batch ingested meanwhile completes a
// match for it. The first backlog delivery starts that batch and then
// holds the sink for a while, which a live delivery that does not wait for
// it enters.
func TestBacklogNeverOverlapsLiveDelivery(t *testing.T) {
	w := acceptanceWorkload(t)
	base := []streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(t.TempDir()),
		streamworks.WithFsyncPolicy("off"),
	}
	half := len(w.Edges) / 2
	ffs := faultfs.New()
	eng := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	registerAll(t, eng, w)
	streamBatches(t, eng, w, 0, half, 64)
	ffs.CrashNow() // no checkpoint: every match so far is recovered undelivered
	eng.Close()

	eng2 := streamworks.New(base...)
	defer eng2.Close()
	var (
		inside     atomic.Int32
		overlapped = make(chan struct{})
		first      sync.Once
		started    atomic.Bool
		ingested   = make(chan error, 1)
	)
	sub, err := eng2.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) {
		if inside.Add(1) > 1 {
			select {
			case <-overlapped:
			default:
				close(overlapped)
			}
		}
		first.Do(func() {
			started.Store(true)
			go func() { ingested <- eng2.ProcessBatch(context.Background(), w.Edges[half:]) }()
			select {
			case <-overlapped:
			case <-time.After(500 * time.Millisecond):
			}
		})
		inside.Add(-1)
	}))
	if err != nil {
		t.Fatalf("Subscribe after restart: %v", err)
	}
	if !started.Load() {
		t.Fatal("no recovered backlog was delivered on Subscribe")
	}
	if err := <-ingested; err != nil {
		t.Fatalf("ProcessBatch: %v", err)
	}
	eng2.Close()
	<-sub.Done()
	select {
	case <-overlapped:
		t.Fatal("a live delivery entered the sink while it held a backlog match")
	default:
	}
}

// TestShardedFlushBarrier pins the public Flush contract recovery depends
// on: after Flush returns, every match derived from previously ingested
// edges has been delivered to subscribers.
func TestShardedFlushBarrier(t *testing.T) {
	w := acceptanceWorkload(t)
	ref, _, err := gen.RunSingle(gen.Workload{
		Name: w.Name, Edges: w.Edges[:1500], Queries: w.Queries, Engine: w.Engine,
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	defer eng.Close()
	registerAll(t, eng, w)
	var mu sync.Mutex
	set := make(gen.MatchSet)
	if _, err := eng.Subscribe("", collectSet(&mu, set)); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	streamBatches(t, eng, w, 0, 1500, 64)
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !set.Equal(ref) {
		t.Fatalf("after Flush: %d matches delivered, reference %d", len(set), len(ref))
	}
}

// planSettings reads each registered query's strategy from Metrics.
func planSettings(t *testing.T, eng streamworks.Engine) map[string]streamworks.RegisterOptions {
	t.Helper()
	m, err := eng.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	out := make(map[string]streamworks.RegisterOptions, len(m.Queries))
	for _, q := range m.Queries {
		out[q.Name] = streamworks.RegisterOptions{Strategy: string(q.Strategy)}
	}
	return out
}

// TestRecoveryKeepsEachQuerysPlanSettings: a restart re-registers every
// query with the strategy it was registered with. A log written while a
// query could opt into runtime re-planning carries "adaptive":"on" in its
// register frames and manifests; such a query recovers with its strategy's
// plan, like every query now, with no change to the log format.
func TestRecoveryKeepsEachQuerysPlanSettings(t *testing.T) {
	smurf, worm := gen.SmurfQuery(time.Minute), gen.WormQuery(time.Minute)
	want := map[string]streamworks.RegisterOptions{
		smurf.Name(): {Strategy: "lazy"},
		worm.Name():  {Strategy: "selective"},
	}
	ctx := context.Background()
	dir := t.TempDir()
	eng := streamworks.New(streamworks.WithDataDir(dir))
	if err := eng.RegisterQueryWith(ctx, smurf, streamworks.RegisterOptions{Strategy: "lazy"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery(ctx, worm); err != nil {
		t.Fatal(err)
	}
	if got := planSettings(t, eng); !reflect.DeepEqual(got, want) {
		t.Fatalf("before the restart: %v, want %v", got, want)
	}
	eng.Close()
	eng = streamworks.New(streamworks.WithDataDir(dir))
	defer eng.Close()
	if got := planSettings(t, eng); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the restart: %v, want %v", got, want)
	}

	// The payloads such a log wrote for a fresh engine's first segment and,
	// after a restart, its second, byte for byte.
	record := func(q *streamworks.Query, strategy string) string {
		dsl, err := json.Marshal(streamworks.FormatQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"name":%q,"dsl":%s,"strategy":%q,"adaptive":"on"}`, q.Name(), dsl, strategy)
	}
	manifest := func(registrations string) string {
		return `{"watermark":0,"retention":0,"cutoff":-9223372036854775808,"registrations":` + registrations + `,"emitted":[]}`
	}
	for _, tc := range []struct {
		name, segment, manifest, frame string
		want                           map[string]streamworks.RegisterOptions
	}{
		{"adaptive-on-frame", "seg-00000001.wal", manifest("null"), record(smurf, "lazy"),
			map[string]streamworks.RegisterOptions{smurf.Name(): {Strategy: "lazy"}}},
		{"adaptive-on-manifest", "seg-00000002.wal", manifest("[" + record(smurf, "lazy") + "]"), record(worm, "balanced"),
			map[string]streamworks.RegisterOptions{smurf.Name(): {Strategy: "lazy"}, worm.Name(): {Strategy: "balanced"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seg := wire.AppendFrame([]byte("SWWAL002"), wal.RecManifest, []byte(tc.manifest))
			seg = wire.AppendFrame(seg, wal.RecRegister, []byte(tc.frame))
			if err := os.WriteFile(filepath.Join(dir, tc.segment), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			eng := streamworks.New(streamworks.WithDataDir(dir))
			defer eng.Close()
			if d := eng.Durability(); d.Mode != "ok" {
				t.Fatalf("durability %q after recovering the log", d.Mode)
			}
			if got := planSettings(t, eng); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("recovered %v, want %v", got, tc.want)
			}
		})
	}
}
