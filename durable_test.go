package streamworks_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
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
// replays only the in-order batch and re-derives the match set it
// delivered. Manual acknowledgment with no ack leaves every cursor at the
// start, so each re-derived match reaches the backlog, where it is seen.
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
		streamworks.WithManualDeliveryAck(true),
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
		{
			name: "v2-data-dir",
			opts: func(dir string) []streamworks.Option {
				// A v2 log, its manifest JSON with an emitted set.
				seg := wire.AppendFrame([]byte("SWWAL002"), wal.RecManifest,
					[]byte(`{"watermark":0,"retention":0,"cutoff":-9223372036854775808,"registrations":null,"emitted":[]}`))
				if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), seg, 0o644); err != nil {
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
		// No ack: every match so far is recovered undelivered.
		streamworks.WithManualDeliveryAck(true),
	}
	half := len(w.Edges) / 2
	ffs := faultfs.New()
	eng := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	registerAll(t, eng, w)
	streamBatches(t, eng, w, 0, half, 64)
	ffs.CrashNow()
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
// query with the strategy it was registered with.
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

}

// manyQueriesWorkload is the match-heavy 50-query many-queries shape:
// edges netflow edges among 1,000 hosts and a news stream an eighth their
// size, every query window scaled so that the stream spans the given number
// of retentions of the engine, whose retention is the widest of them.
func manyQueriesWorkload(edges, retentions int) gen.Workload {
	w := gen.BenchManyQueriesWorkload(50, edges, 1000, time.Second)
	widest := w.Engine.Retention
	for _, q := range w.Queries {
		widest = max(widest, q.Window())
	}
	scale := float64(streamSpan(w)) / float64(time.Duration(retentions)*widest)
	return gen.BenchManyQueriesWorkload(50, edges, 1000, time.Duration(scale*float64(time.Second)))
}

// streamSpan is the stream time w's edges cover.
func streamSpan(w gen.Workload) time.Duration {
	return time.Duration(w.Edges[len(w.Edges)-1].Edge.Timestamp - w.Edges[0].Edge.Timestamp)
}

// crashAfter is the batch boundary right after the edge that, by the log
// positions in ref, completes the match at quantile q: that share of the
// matches is delivered before it, and its last batch completes at least one.
func crashAfter(ref map[string]uint64, q float64) int {
	seqs := make([]uint64, 0, len(ref))
	for _, seq := range ref {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return (int(seqs[int(q*float64(len(seqs)))]) + crashBatch - 1) / crashBatch * crashBatch
}

// positions records the log position of the edge that completed each
// delivered match, keyed as gen.MatchSet keys them, and fails the test on a
// second delivery within one engine's life.
type positions struct {
	t   *testing.T
	run string
	mu  sync.Mutex
	at  map[string]uint64
}

func newPositions(t *testing.T, run string) *positions {
	return &positions{t: t, run: run, at: make(map[string]uint64)}
}

func (p *positions) OnMatch(m streamworks.Match) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := m.Query + "\x1f" + m.Signature
	if _, dup := p.at[k]; dup {
		p.t.Errorf("%s delivered %s %s twice", p.run, m.Query, m.Signature)
	}
	p.at[k] = m.Seq
}

// durablePositions streams w through a durable engine that never crashes
// and returns where each match completed: the positions a crashed run's
// log gives the same edges, streamed in the same batches.
func durablePositions(t *testing.T, w gen.Workload) map[string]uint64 {
	t.Helper()
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine), streamworks.WithDataDir(t.TempDir()),
		streamworks.WithFsyncPolicy("off"))
	registerAll(t, eng, w)
	ref := newPositions(t, "the uninterrupted run")
	sub, err := eng.Subscribe("", ref)
	if err != nil {
		t.Fatal(err)
	}
	streamBatches(t, eng, w, 0, len(w.Edges), crashBatch)
	eng.Close()
	<-sub.Done()
	set, _, err := gen.RunSingle(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.at) != len(set) {
		t.Fatalf("the durable run delivered %d matches, the in-memory one %d", len(ref.at), len(set))
	}
	for k, seq := range ref.at {
		if _, ok := set[k]; !ok {
			t.Fatalf("the durable run delivered %q, which the in-memory run does not deliver", k)
		}
		if seq == 0 {
			t.Fatalf("the durable run delivered %q with no log position", k)
		}
	}
	return ref.at
}

// TestCrashRecoveryRederivesAtTheSamePositions is the property the
// delivery cursor rests on: replay re-derives each match when the same
// logged edge completes it, whatever the plan. Nothing is acked before the
// crash, so every match the replay re-derives comes back in the backlog
// with the position of its completing edge, which must be the one the
// uninterrupted run's match had, on the 50-query shape over 20 retentions
// crashed after three quarters of its matches, once checkpoints have
// deleted the log's head: positions count from the manifest of the oldest
// segment left.
func TestCrashRecoveryRederivesAtTheSamePositions(t *testing.T) {
	w := manyQueriesWorkload(8000, 20)
	ref := durablePositions(t, w)
	crash := crashAfter(ref, 0.75)
	dir := t.TempDir()
	base := []streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(dir),
		streamworks.WithFsyncPolicy("off"),
		streamworks.WithSnapshotEvery(8),
		streamworks.WithManualDeliveryAck(true),
	}
	ffs := faultfs.New()
	eng := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	registerAll(t, eng, w)
	streamBatches(t, eng, w, 0, crash, crashBatch)
	if _, err := os.Stat(filepath.Join(dir, "seg-00000001.wal")); err == nil {
		t.Fatal("no checkpoint deleted the head of the log before the crash")
	}
	ffs.CrashNow()
	eng.Close()

	eng2 := streamworks.New(base...)
	rederived := newPositions(t, "the recovery")
	sub, err := eng2.Subscribe("", rederived)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Close()
	<-sub.Done()
	before := 0
	for _, seq := range ref {
		if seq <= uint64(crash) {
			before++
		}
	}
	if len(rederived.at) == 0 {
		t.Fatalf("recovery re-derived none of the %d matches completed before the crash", before)
	}
	t.Logf("recovery re-derived %d of the %d matches completed by the first %d edges", len(rederived.at), before, crash)
	for k, seq := range rederived.at {
		if want, ok := ref[k]; !ok || seq != want || seq > uint64(crash) {
			t.Errorf("%q re-derived at log position %d; the uninterrupted run completed it at %d (crash after %d)", k, seq, want, crash)
		}
	}
}

// TestCrashRecoveryManyQueriesExactlyOnce crashes the match-heavy 50-query
// shape in the middle of its matches, after the last batch's edges reached the
// log and before its cursor did, and restarts it: the matches delivered
// before the crash and after the restart are exactly the uninterrupted
// run's, each at its log position, no run delivers one twice, and the
// restart redelivers exactly that last batch's matches, as its backlog.
func TestCrashRecoveryManyQueriesExactlyOnce(t *testing.T) {
	w := manyQueriesWorkload(8000, 4)
	ref := durablePositions(t, w)
	crash := crashAfter(ref, 0.5)
	dir := t.TempDir()
	base := []streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(dir),
		streamworks.WithFsyncPolicy("off"),
		streamworks.WithSnapshotEvery(8),
	}
	ffs := faultfs.New()
	eng := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	registerAll(t, eng, w)
	first := newPositions(t, "the run before the crash")
	sub, err := eng.Subscribe("", first)
	if err != nil {
		t.Fatal(err)
	}
	streamBatches(t, eng, w, 0, crash-crashBatch, crashBatch)
	// The disk takes the last batch's frame and nothing after it.
	ffs.SetWriteBudget(int64(wire.FrameHeaderLen + len(wire.AppendEdges(nil, w.Edges[crash-crashBatch:crash]))))
	streamBatches(t, eng, w, crash-crashBatch, crash, crashBatch)
	ffs.CrashNow()
	eng.Close()
	<-sub.Done()

	eng2 := streamworks.New(base...)
	second := newPositions(t, "the restarted run")
	sub2, err := eng2.Subscribe("", second)
	if err != nil {
		t.Fatal(err)
	}
	second.mu.Lock()
	backlog := len(second.at)
	second.mu.Unlock()
	if backlog == 0 {
		t.Fatal("the restart has no backlog: the last batch's matches were not re-derived")
	}
	streamBatches(t, eng2, w, crash, len(w.Edges), crashBatch)
	eng2.Close()
	<-sub2.Done()
	union := make(map[string]uint64, len(ref))
	redelivered := 0
	for _, p := range []*positions{first, second} {
		for k, seq := range p.at {
			if _, twice := union[k]; twice {
				redelivered++
				if seq <= uint64(crash-crashBatch) {
					t.Errorf("%q, completed before the last batch, delivered before the crash and again after it", k)
				}
			}
			union[k] = seq
		}
	}
	if redelivered != backlog {
		t.Errorf("the restart redelivered %d matches but handed %d to its subscriber", redelivered, backlog)
	}
	if !reflect.DeepEqual(union, ref) {
		t.Fatalf("the runs delivered %d matches across the crash, the uninterrupted run %d (or at other positions)", len(union), len(ref))
	}
}

// TestCrashRecoveryManualAckTwoSpeeds: under WithManualDeliveryAck two
// subscribers to every query ack what they flush at different speeds. The
// fast one acks each match as it receives it, until it stops between two
// matches one edge completes for one query; the slow one acks far enough
// behind never to reach that edge, so every ack it makes is one the cursor
// already covers. After a
// crash the restart redelivers exactly the matches neither acked, the rest
// of that edge's included, no acked match again, and with the acked ones
// and the rest of the stream they make up the uninterrupted run.
func TestCrashRecoveryManualAckTwoSpeeds(t *testing.T) {
	w := manyQueriesWorkload(8000, 4)
	ref := durablePositions(t, w)
	crash := crashAfter(ref, 0.5)
	// The last edge before the crash that completes two matches of one
	// query: the fast subscriber acks the first of them and stops, and the
	// slow one lags by more than the matches from that edge on.
	type pair struct {
		query string
		seq   uint64
	}
	per := make(map[pair]int)
	var early []uint64
	for k, seq := range ref {
		if seq <= uint64(crash) {
			per[pair{k[:strings.IndexByte(k, '\x1f')], seq}]++
			early = append(early, seq)
		}
	}
	slices.Sort(early)
	var stop pair
	for p, n := range per {
		if n >= 2 && (p.seq > stop.seq || p.seq == stop.seq && p.query < stop.query) {
			stop = p
		}
	}
	lagBy := len(early) - sort.Search(len(early), func(i int) bool { return early[i] >= stop.seq }) + 50
	if stop.seq == 0 || lagBy >= len(early) {
		t.Fatalf("no edge before the crash completes two matches of one query early enough: %+v", stop)
	}
	base := []streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(t.TempDir()),
		streamworks.WithFsyncPolicy("off"),
		streamworks.WithSnapshotEvery(8),
		streamworks.WithManualDeliveryAck(true),
	}
	ffs := faultfs.New()
	eng := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	registerAll(t, eng, w)
	var mu sync.Mutex
	delivered, acked := make(gen.MatchSet), make(gen.MatchSet)
	ack := func(m streamworks.Match) {
		eng.AckDelivered(m)
		acked.AddKey(m.Query, m.Signature)
	}
	stopped := false
	fast := streamworks.SinkFunc(func(m streamworks.Match) {
		mu.Lock()
		defer mu.Unlock()
		delivered.AddKey(m.Query, m.Signature)
		if !stopped {
			ack(m)
			stopped = m.Query == stop.query && m.Seq == stop.seq
		}
	})
	var lag []streamworks.Match
	slow := streamworks.SinkFunc(func(m streamworks.Match) {
		mu.Lock()
		defer mu.Unlock()
		if lag = append(lag, m); len(lag) > lagBy {
			ack(lag[0])
			lag = lag[1:]
		}
	})
	for _, sink := range []streamworks.MatchSink{fast, slow} {
		if _, err := eng.Subscribe("", sink); err != nil {
			t.Fatal(err)
		}
	}
	streamBatches(t, eng, w, 0, crash, crashBatch)
	ffs.CrashNow()
	eng.Close()
	if !stopped {
		t.Fatalf("the fast subscriber never reached %s at log position %d", stop.query, stop.seq)
	}

	eng2 := streamworks.New(base...)
	after := newPositions(t, "the restarted run")
	sub, err := eng2.Subscribe("", after)
	if err != nil {
		t.Fatal(err)
	}
	after.mu.Lock()
	backlog := make(gen.MatchSet, len(after.at))
	rest := 0 // the stopping edge's other matches for its query
	for k, seq := range after.at {
		backlog[k] = struct{}{}
		if seq == stop.seq && strings.HasPrefix(k, stop.query+"\x1f") {
			rest++
		}
	}
	after.mu.Unlock()
	if rest != per[stop]-1 {
		t.Errorf("the restart redelivered %d of the %d matches the fast subscriber left unacked at its last edge", rest, per[stop]-1)
	}
	streamBatches(t, eng2, w, crash, len(w.Edges), crashBatch)
	eng2.Close()
	<-sub.Done()
	want := make(gen.MatchSet)
	for k := range delivered {
		if _, ok := acked[k]; !ok {
			want[k] = struct{}{}
		}
	}
	if !backlog.Equal(want) {
		t.Fatalf("the restart redelivered %d matches; %d were delivered and not acked before the crash", len(backlog), len(want))
	}
	t.Logf("%d matches before the crash, %d acked, the slow subscriber %d behind; %d redelivered, %d of them at the fast one's last edge",
		len(delivered), len(acked), lagBy, len(backlog), rest)
	union := make(map[string]uint64, len(ref))
	for k, seq := range after.at {
		if _, ok := acked[k]; ok {
			t.Errorf("%q acked before the crash and delivered again after it", k)
		}
		union[k] = seq
	}
	for k := range acked {
		union[k] = ref[k]
	}
	if !reflect.DeepEqual(union, ref) {
		t.Fatalf("acked before the crash and delivered after it: %d matches, the uninterrupted run %d (or at other positions)", len(union), len(ref))
	}
}

// TestDurableMatchHeavyCosts is the match-heavy durable cell: the 50-query
// shape through WithDataDir over 4 retentions and over 20, in batches of
// 256 with a checkpoint every 16. What the log holds about delivery is a
// cursor per registration, so whatever the match count
//   - the newest manifest is its registrations' text plus a fixed 16 bytes
//     each and 64 in all;
//   - the log's bytes are within 10% of its edge frames alone;
//   - checkpoints come once per 16 batches, no more.
//
// Durable against in-memory ingest and recovery against live ingest are
// logged, not asserted: they are wall-clock.
func TestDurableMatchHeavyCosts(t *testing.T) {
	const batch, every = 256, 16
	for _, retentions := range []int{4, 20} {
		t.Run(fmt.Sprintf("retentions=%d", retentions), func(t *testing.T) {
			w := manyQueriesWorkload(8000, retentions)
			ingest := func(opts ...streamworks.Option) (*streamworks.Sharded, int, time.Duration) {
				eng := streamworks.New(append([]streamworks.Option{streamworks.WithEngineConfig(w.Engine)}, opts...)...)
				registerAll(t, eng, w)
				var matches atomic.Int64
				if _, err := eng.Subscribe("", streamworks.SinkFunc(func(streamworks.Match) { matches.Add(1) })); err != nil {
					t.Fatal(err)
				}
				t0 := time.Now()
				streamBatches(t, eng, w, 0, len(w.Edges), batch)
				return eng, int(matches.Load()), time.Since(t0)
			}
			mem, want, memTime := ingest()
			mem.Close()
			dir := t.TempDir()
			eng, got, durTime := ingest(streamworks.WithDataDir(dir), streamworks.WithFsyncPolicy("off"), streamworks.WithSnapshotEvery(every))
			d := eng.Durability()
			eng.Close()
			if got != want || d.Mode != "ok" {
				t.Fatalf("durable run delivered %d matches, in-memory %d; durability %+v", got, want, d)
			}

			allowance := 64
			for _, q := range w.Queries {
				allowance += len(q.Name()) + len(streamworks.FormatQuery(q)) + 16
			}
			names, err := wal.OSFS{}.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := os.ReadFile(filepath.Join(dir, names[len(names)-1]))
			if err != nil {
				t.Fatal(err)
			}
			typ, manifest, _, err := wire.DecodeFrame(seg[len("SWWAL003"):])
			if err != nil || typ != wal.RecManifest {
				t.Fatalf("%s does not start with a manifest: type %d, %v", names[len(names)-1], typ, err)
			}
			if len(manifest) > allowance {
				t.Errorf("the manifest is %d B after %d matches; its %d registrations allow %d", len(manifest), got, len(w.Queries), allowance)
			}

			edgeFrames := 0
			for i := 0; i < len(w.Edges); i += batch {
				edgeFrames += wire.FrameHeaderLen + len(wire.AppendEdges(nil, w.Edges[i:min(i+batch, len(w.Edges))]))
			}
			if float64(d.Bytes) > 1.1*float64(edgeFrames) {
				t.Errorf("the log wrote %.1f B per edge; its edge frames alone are %.1f", float64(d.Bytes)/float64(len(w.Edges)), float64(edgeFrames)/float64(len(w.Edges)))
			}
			batches := (len(w.Edges) + batch - 1) / batch
			if d.Snapshots > uint64(batches/every) {
				t.Errorf("%d checkpoints over %d batches, one per %d allowed", d.Snapshots, batches, every)
			}

			t0 := time.Now()
			rec := streamworks.New(streamworks.WithEngineConfig(w.Engine), streamworks.WithDataDir(dir), streamworks.WithFsyncPolicy("off"))
			recTime := time.Since(t0)
			rec.Close()
			n := float64(len(w.Edges))
			t.Logf("%d edges, %d matches: %.0f ns/edge in memory, %.0f durable; %.2f B/edge logged, %.2f in edge frames; %d checkpoints; %d-B manifest; recovery %v against %v of live ingest",
				len(w.Edges), got, float64(memTime)/n, float64(durTime)/n, float64(d.Bytes)/n, float64(edgeFrames)/n, d.Snapshots, len(manifest), recTime, durTime)
		})
	}
}

// TestBacklogSurvivesASecondCrash: a recovered backlog no subscriber has
// taken holds its queries' cursors where recovery found them, so batches
// processed meanwhile, whose commits move every other cursor, do not
// suppress it, and a second crash recovers it again.
func TestBacklogSurvivesASecondCrash(t *testing.T) {
	w := acceptanceWorkload(t)
	ref := durablePositions(t, w)
	crash := crashAfter(ref, 0.5)
	base := []streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(t.TempDir()),
		streamworks.WithFsyncPolicy("off"),
	}
	ffs := faultfs.New()
	eng := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	registerAll(t, eng, w)
	streamBatches(t, eng, w, 0, crash-crashBatch, crashBatch)
	// The disk takes the last batch's frame and nothing after it: that
	// batch's matches are the backlog.
	ffs.SetWriteBudget(int64(wire.FrameHeaderLen + len(wire.AppendEdges(nil, w.Edges[crash-crashBatch:crash]))))
	streamBatches(t, eng, w, crash-crashBatch, crash, crashBatch)
	ffs.CrashNow()
	eng.Close()
	want := make(gen.MatchSet)
	for k, seq := range ref {
		if seq > uint64(crash-crashBatch) && seq <= uint64(crash) {
			want[k] = struct{}{}
		}
	}

	// No subscriber: the backlog waits while the stream goes on, then the
	// process dies again.
	ffs = faultfs.New()
	eng2 := streamworks.New(append(base, streamworks.WithWALFS(ffs))...)
	if n := eng2.Durability().RecoveryBacklog; n != uint64(len(want)) {
		t.Fatalf("recovery backlog %d, the last batch before the crash completed %d", n, len(want))
	}
	streamBatches(t, eng2, w, crash, len(w.Edges), crashBatch)
	ffs.CrashNow()
	eng2.Close()

	eng3 := streamworks.New(base...)
	defer eng3.Close()
	var mu sync.Mutex
	got := make(gen.MatchSet)
	if _, err := eng3.Subscribe("", collectSet(&mu, got)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%q, in the first restart's backlog, is missing from the second's", k)
		}
	}
}

// TestBacklogSurvivesSubscribeRacingClose: a Subscribe that Close refuses
// delivers none of the recovered backlog and leaves it held, so the next
// start recovers it again; one that wins delivers it whole. Either way no
// backlog match is lost, whichever way each round's race goes.
func TestBacklogSurvivesSubscribeRacingClose(t *testing.T) {
	w := acceptanceWorkload(t)
	ref := durablePositions(t, w)
	crash := crashAfter(ref, 0.5)
	dir := t.TempDir()
	opts := func(dir string) []streamworks.Option {
		return []streamworks.Option{
			streamworks.WithEngineConfig(w.Engine),
			streamworks.WithDataDir(dir),
			streamworks.WithFsyncPolicy("off"),
		}
	}
	ffs := faultfs.New()
	eng := streamworks.New(append(opts(dir), streamworks.WithWALFS(ffs))...)
	registerAll(t, eng, w)
	streamBatches(t, eng, w, 0, crash-crashBatch, crashBatch)
	// The disk takes the last batch's frame and nothing after it: that
	// batch's matches are the backlog.
	ffs.SetWriteBudget(int64(wire.FrameHeaderLen + len(wire.AppendEdges(nil, w.Edges[crash-crashBatch:crash]))))
	streamBatches(t, eng, w, crash-crashBatch, crash, crashBatch)
	ffs.CrashNow()
	eng.Close()
	want := make(gen.MatchSet)
	for k, seq := range ref {
		if seq > uint64(crash-crashBatch) && seq <= uint64(crash) {
			want[k] = struct{}{}
		}
	}
	if len(want) == 0 {
		t.Fatal("the crashed batch completed no match: no backlog to race for")
	}

	for round := range 80 {
		copyDir := filepath.Join(t.TempDir(), fmt.Sprint(round))
		copyFiles(t, dir, copyDir)
		var mu sync.Mutex
		got := make(gen.MatchSet)
		eng := streamworks.New(opts(copyDir)...)
		// Subscribe starts as soon as Close may, and Close a little later
		// each round, sweeping it across Subscribe's span.
		var ready, start atomic.Bool
		subscribed := make(chan error, 1)
		go func() {
			ready.Store(true)
			for !start.Load() {
			}
			_, err := eng.Subscribe("", collectSet(&mu, got))
			subscribed <- err
		}()
		for !ready.Load() {
			runtime.Gosched()
		}
		start.Store(true)
		var spin atomic.Int64
		for spin.Add(1) < int64(round*20) {
		}
		eng.Close()
		if err := <-subscribed; err != nil && !errors.Is(err, streamworks.ErrClosed) {
			t.Fatalf("round %d: Subscribe: %v", round, err)
		}

		again := streamworks.New(opts(copyDir)...)
		if _, err := again.Subscribe("", collectSet(&mu, got)); err != nil {
			t.Fatal(err)
		}
		again.Close()
		mu.Lock()
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("round %d: backlog match %q was delivered neither before Close nor after the restart", round, k)
			}
		}
		mu.Unlock()
	}
}

// copyFiles copies the files of directory from into a new directory to.
func copyFiles(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err == nil {
		err = os.Mkdir(to, 0o755)
	}
	for _, e := range entries {
		var b []byte
		if b, err = os.ReadFile(filepath.Join(from, e.Name())); err == nil {
			err = os.WriteFile(filepath.Join(to, e.Name()), b, 0o644)
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}
