package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
)

type runConfig struct {
	w             *workload
	pacedRate     float64 // edges/s, from BENCHMARK.json
	seed          int64
	seconds       int
	trace         bool
	updateDigests bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	problems  []string // every verification failure, human-readable
	warnings  []string // doubts about the measurement that do not fail it
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// recorder is the subscriber of one execution. During a saturation pass it
// only hashes each match's identity into a preallocated slice; during the
// paced phase (paced != nil) it also times the delivery and keeps the keys
// the ground-truth check needs.
type recorder struct {
	in    *inputs
	sigs  []uint64
	trace *phaseTrace
	paced *pacedRecorder
}

type pacedRecorder struct {
	start    atomic.Int64 // nanotime of the phase start; 0 before
	interval int64        // ns between batch due times
	// refQueries names the queries the reference engine runs when it runs a
	// sample of them (nil: all); refKeys are the matches delivered for those.
	refQueries map[string]bool

	refKeys    []uint64
	edgeKeys   []uint64
	vertexKeys []uint64
	latency    []int64 // ns from the completing batch's due time to delivery
	ids        []uint64
}

func (r *recorder) OnMatch(m streamworks.Match) {
	now := nanotime()
	key := sigKey(m.Query, m.Signature)
	r.sigs = append(r.sigs, key)
	if r.paced == nil && r.trace == nil {
		return
	}
	last := lastArriving(r.in, m.EdgeIDs)
	if p := r.paced; p != nil {
		if p.refQueries[m.Query] {
			p.refKeys = append(p.refKeys, key)
		}
		if len(r.in.attacks) > 0 {
			p.edgeKeys = append(p.edgeKeys, idsKey(m.Query, m.EdgeIDs))
		}
		if len(r.in.events) > 0 {
			p.ids = p.ids[:0]
			for _, b := range m.Bindings {
				p.ids = append(p.ids, b.VertexID)
			}
			slices.Sort(p.ids)
			p.vertexKeys = append(p.vertexKeys, idsKey(m.Query, p.ids))
		}
		if start := p.start.Load(); start != 0 && last >= r.in.warm {
			p.latency = append(p.latency, now-(start+int64(batchOf(r.in, last))*p.interval))
		}
	}
	if r.trace != nil && last >= r.in.warm {
		r.trace.match(batchOf(r.in, last), now, nanotime())
	}
}

// refQueryNames is the recorder's view of w's reference sample: nil when the
// reference runs every query.
func refQueryNames(w *workload, in *inputs) map[string]bool {
	if w.refQueryStride <= 1 {
		return nil
	}
	names := map[string]bool{}
	for _, q := range in.refQueries(w) {
		names[q.Name()] = true
	}
	return names
}

// lastArriving is the stream index of the match's last-arriving data edge:
// the edge whose batch made the match detectable.
func lastArriving(in *inputs, edgeIDs []uint64) int {
	last := -1
	for _, id := range edgeIDs {
		last = max(last, in.position(id))
	}
	return last
}

// batchOf maps a timed-stream index to the index of the batch carrying it.
func batchOf(in *inputs, streamIndex int) int { return (streamIndex - in.warm) / batchSize }

// execution is one lifetime of the system under test: set up, then one
// timed phase.
type execution struct {
	rec       *recorder
	tgt       *target
	cleanup   func()
	heapBase  uint64
	construct time.Duration
	warmup    time.Duration
	fsType    string
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ingest offers one batch, retrying while the daemon sheds load.
func ingest(eng streamworks.Engine, batch []graph.StreamEdge) (retries int, err error) {
	for {
		err = eng.ProcessBatch(context.Background(), batch)
		if err == nil || !client.IsOverloaded(err) || retries == 20 {
			return retries, err
		}
		retries++
		time.Sleep(time.Duration(retries) * time.Millisecond)
	}
}

// setUp builds the system under test, registers the queries, subscribes and
// replays the warm-up prefix, timing construction and warm-up. The heap
// baseline is read first, with the inputs and the recorder already resident.
func setUp(cfg runConfig, in *inputs, rec *recorder) (*execution, error) {
	ex := &execution{rec: rec, cleanup: func() {}}
	dataDir := ""
	if cfg.w.durable {
		dir, remove, err := newDataDir(filepath.Join(outDir, "data"))
		if err != nil {
			return nil, err
		}
		dataDir, ex.cleanup, ex.fsType = dir, remove, fsTypeOf(dir)
	}
	ex.heapBase = heapAlloc()
	t0 := time.Now()
	tgt, err := cfg.w.open(in, dataDir)
	if err != nil {
		ex.cleanup()
		return nil, fmt.Errorf("opening %s: %w", cfg.w.name, err)
	}
	ex.tgt = tgt
	ctx := context.Background()
	for _, q := range in.queries {
		if err := tgt.eng.RegisterQuery(ctx, q); err != nil {
			ex.close()
			return nil, fmt.Errorf("registering %s: %w", q.Name(), err)
		}
	}
	sub, err := tgt.eng.Subscribe("", rec)
	if err != nil {
		ex.close()
		return nil, fmt.Errorf("subscribing: %w", err)
	}
	tgt.sub = sub
	ex.construct = time.Since(t0)
	for _, batch := range batchesOf(in.edges[:in.warm]) {
		if _, err := ingest(tgt.eng, batch); err != nil {
			ex.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	// On the served target an acknowledged batch is routed, not yet
	// processed; the counters request queues behind it on every shard.
	if _, err := tgt.counters(); err != nil {
		ex.close()
		return nil, fmt.Errorf("warm-up barrier: %w", err)
	}
	ex.warmup = time.Since(t0) - ex.construct
	return ex, nil
}

func (ex *execution) close() {
	if ex.tgt != nil {
		ex.tgt.close()
	}
	ex.cleanup()
}

// passStats is what one saturation pass measured.
type passStats struct {
	edges    int
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	gcPause  time.Duration
	numGC    uint32
	stateMB  float64
	heapSys  uint64
	refused  int // edges of batches the target refused after retries
	retries  int
	counters core.Metrics
}

func (p passStats) edgesPerSec() float64 { return float64(p.edges) / p.wall.Seconds() }

// saturate replays the timed stream closed-loop: the next batch is sent when
// the previous one is acknowledged. The clock stops when every offered edge
// is processed and every match it produced has been delivered.
func saturate(ex *execution, in *inputs) (passStats, error) {
	timed := in.timed()
	var st passStats
	st.edges = len(timed)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := nanotime()
	tr := ex.rec.trace
	for b, batch := range batchesOf(timed) {
		p0 := nanotime()
		retries, err := ingest(ex.tgt.eng, batch)
		if tr != nil {
			tr.process(b, p0, nanotime())
		}
		st.retries += retries
		if err != nil {
			st.refused += len(batch)
		}
	}
	c, err := ex.tgt.counters()
	if err != nil {
		return st, fmt.Errorf("counters: %w", err)
	}
	st.counters = c
	if err := ex.tgt.drain(); err != nil {
		return st, fmt.Errorf("drain: %w", err)
	}
	st.wall = time.Duration(nanotime() - t0)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	st.numGC = ms1.NumGC - ms0.NumGC
	st.heapSys = ms1.HeapSys
	// The engine (closed, on the served target, but still referenced) and
	// its window, partial matches and emitted sets are what remains live.
	st.stateMB = (float64(heapAlloc()) - float64(ex.heapBase)) / (1 << 20)
	runtime.KeepAlive(ex.tgt)
	return st, nil
}

// pacedStats is what the open-loop phase measured.
type pacedStats struct {
	edges      int
	batches    int
	wall       time.Duration
	acks       []time.Duration // ProcessBatch round trip per batch
	lateness   []time.Duration
	maxBacklog int
	refused    int
	retries    int
	counters   core.Metrics
}

// pace sends the timed stream on a fixed schedule at the workload's constant
// rate. A batch that cannot go out on time is sent as soon as the previous
// one is acknowledged, and its lateness recorded; latency is timed from the
// due time, so a stall is charged to every match it delays.
func pace(ex *execution, in *inputs, rate float64) (pacedStats, error) {
	timed := in.timed()
	interval := time.Duration(float64(batchSize) / rate * float64(time.Second))
	batches := batchesOf(timed)
	st := pacedStats{edges: len(timed), batches: len(batches)}
	st.acks = make([]time.Duration, 0, st.batches)
	runtime.GC()
	start := nanotime()
	ex.rec.paced.interval = int64(interval)
	ex.rec.paced.start.Store(start)
	p := &pacer{
		interval: interval,
		now:      func() time.Duration { return time.Duration(nanotime() - start) },
		sleep:    time.Sleep,
		lateness: make([]time.Duration, 0, st.batches),
	}
	tr := ex.rec.trace
	for b, batch := range batches {
		p.wait(b)
		p0 := nanotime()
		retries, err := ingest(ex.tgt.eng, batch)
		p1 := nanotime()
		if tr != nil {
			tr.process(b, p0, p1)
		}
		st.acks = append(st.acks, time.Duration(p1-p0))
		st.retries += retries
		if err != nil {
			st.refused += len(batch)
		}
	}
	c, err := ex.tgt.counters()
	if err != nil {
		return st, fmt.Errorf("counters: %w", err)
	}
	st.counters = c
	if err := ex.tgt.drain(); err != nil {
		return st, fmt.Errorf("drain: %w", err)
	}
	st.wall = time.Duration(nanotime() - start)
	st.lateness, st.maxBacklog = p.lateness, p.maxBacklog
	return st, nil
}

// runWorkload is the whole run protocol for one workload; see README.md.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{correct: true, metrics: map[string]metric{}}
	pacedSeconds := float64(cfg.seconds) * pacedShare
	timedEdges := int(cfg.pacedRate * pacedSeconds)

	var in *inputs
	var genTimes []float64 // seconds
	generate := func() error {
		t0 := time.Now()
		fresh := cfg.w.generate(cfg.seed, timedEdges)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		if in != nil && (len(fresh.edges) != len(in.edges) || fresh.edges[len(fresh.edges)-1].Edge.ID != in.edges[len(in.edges)-1].Edge.ID) {
			return fmt.Errorf("seed %d generated two different streams", cfg.seed)
		}
		in = fresh
		return nil
	}

	// The plan: which executions run, in order. An untraced run is the five
	// saturation passes and the paced phase; a traced run is two untraced
	// passes (the base for trace.overhead_pct), one traced pass and the
	// traced paced phase.
	type step struct{ paced, traced bool }
	plan := append(make([]step, passes), step{paced: true})
	regenerate := setupRepeats
	if cfg.trace {
		plan = []step{{}, {}, {traced: true}, {paced: true, traced: true}}
		regenerate = 1
	}

	var (
		builds      []float64 // construction + warm-up of every execution, seconds
		constructs  []float64
		warmups     []float64
		untraced    []passStats
		tracedPass  *passStats
		paced       pacedStats
		pacedRec    *recorder
		canonical   []uint64 // sorted match set of the first execution
		traces      []*phaseTrace
		sigCapacity = 1 << 12
		fsType      string
		offered     int
	)
	for n, s := range plan {
		if n < regenerate {
			if err := generate(); err != nil {
				return nil, err
			}
		}
		rec := &recorder{in: in, sigs: make([]uint64, 0, sigCapacity)}
		batches := len(batchesOf(in.timed()))
		if s.traced {
			name, process := "saturation", spanProcess
			if s.paced {
				name = "paced"
			}
			if cfg.w.served {
				process = spanIngest
			}
			rec.trace = newPhaseTrace(name, process, batches)
			traces = append(traces, rec.trace)
		}
		if s.paced {
			rec.paced = &pacedRecorder{
				refQueries: refQueryNames(cfg.w, in),
				refKeys:    make([]uint64, 0, sigCapacity),
				latency:    make([]int64, 0, sigCapacity),
				edgeKeys:   make([]uint64, 0, sigCapacity),
				vertexKeys: make([]uint64, 0, sigCapacity),
			}
		}
		ex, err := setUp(cfg, in, rec)
		if err != nil {
			return nil, err
		}
		fsType = ex.fsType
		constructs = append(constructs, ex.construct.Seconds())
		warmups = append(warmups, ex.warmup.Seconds())
		builds = append(builds, (ex.construct + ex.warmup).Seconds())
		var refused int
		var dropped uint64
		if s.paced {
			paced, err = pace(ex, in, cfg.pacedRate)
			refused, dropped = paced.refused, paced.counters.EdgesDropped
			pacedRec = rec
		} else {
			var st passStats
			st, err = saturate(ex, in)
			refused, dropped = st.refused, st.counters.EdgesDropped
			if s.traced {
				tracedPass = &st
			} else {
				untraced = append(untraced, st)
			}
		}
		ex.close()
		if err != nil {
			return nil, err
		}
		offered += len(in.edges)
		if refused > 0 {
			res.fail(refused, "execution %d: %d edges refused after retries", n, refused)
		}
		if dropped > 0 {
			res.fail(int(dropped), "execution %d: the engine dropped %d edges as late or duplicate", n, dropped)
		}
		// Every execution must deliver the same set; the first one names it.
		set := sortedSet(rec.sigs)
		if len(set) != len(rec.sigs) {
			res.fail(len(rec.sigs)-len(set), "execution %d: %d matches delivered twice", n, len(rec.sigs)-len(set))
		}
		if canonical == nil {
			canonical = slices.Clone(set)
			sigCapacity = len(set) + len(set)/8 + 64
		} else if missing, extra := setDiff(canonical, set); missing+extra > 0 {
			res.fail(missing+extra, "execution %d: %d matches missing, %d unexpected against execution 0", n, missing, extra)
		}
	}

	// Verify, untimed.
	res.attempted = offered + len(plan)*len(canonical)
	v, err := verify(cfg, in, res, canonical, pacedRec.paced)
	if err != nil {
		return nil, err
	}

	lat := make([]float64, len(pacedRec.paced.latency))
	for i, ns := range pacedRec.paced.latency {
		lat[i] = float64(ns) / 1e6
	}
	slices.Sort(lat)
	if len(lat) == 0 {
		return nil, fmt.Errorf("the paced phase delivered no match of the timed stream: %d s is too short to measure detect_p50_ms", cfg.seconds)
	}
	var eps, cpuUS, allocs, state []float64
	for _, st := range untraced {
		eps = append(eps, st.edgesPerSec())
		cpuUS = append(cpuUS, float64(st.cpu.Microseconds())/float64(st.edges))
		allocs = append(allocs, float64(st.mallocs)/float64(st.edges))
		state = append(state, st.stateMB)
	}
	fmt.Printf("inputs: %d edges (%d warm-up + %d timed), %d queries, %d injected attacks, %d event clusters\n",
		len(in.edges), in.warm, len(in.timed()), len(in.queries), len(in.attacks), len(in.events))
	fmt.Printf("matches: %d delivered by each of %d executions (sha256 %s); %d ground-truth matches, %d reference matches (%d of %d queries, whole stream, %.1fs)\n",
		len(canonical), len(plan), v.sha256[:12], v.groundTruth, v.reference, v.refQueries, len(in.queries), v.refSeconds)
	for i, st := range untraced {
		fmt.Printf("pass %d: %d edges in %.3fs = %.0f edges/s, cpu %.3fs, %d mallocs, state %.2f MiB, retries %d, gcs %d, gc pause %.1fms\n",
			i+1, st.edges, st.wall.Seconds(), st.edgesPerSec(), st.cpu.Seconds(), st.mallocs, st.stateMB, st.retries, st.numGC, float64(st.gcPause)/1e6)
	}
	fmt.Printf("paced: %d edges at %.0f edges/s in %.3fs, %d latency samples, max backlog %d batches\n",
		paced.edges, cfg.pacedRate, paced.wall.Seconds(), len(lat), paced.maxBacklog)
	fmt.Printf("set-up: generate %.3fs + construct %.3fs + warm-up %.3fs (medians); pass spread %.2f%%\n",
		median(genTimes), median(constructs), median(warmups), spreadPct(eps))
	if fsType != "" {
		fmt.Printf("data dir filesystem: %s\n", fsType)
	}
	if len(lat) < 1000 {
		res.warnings = append(res.warnings, fmt.Sprintf("detect_p50_ms rests on %d samples (< 1000)", len(lat)))
	}
	if paced.maxBacklog > 4 {
		res.warnings = append(res.warnings, fmt.Sprintf("the paced phase fell %d batches behind: %0.f edges/s is not comfortably sustainable here", paced.maxBacklog, cfg.pacedRate))
	}

	// The six run-level metrics. Which of them the result line carries, and
	// under which bound, is BENCHMARK.json's business.
	p50, _ := percentile(lat, 0.50)
	res.set("setup_s", median(genTimes)+median(builds), "s")
	res.set("edges_per_s", median(eps), "edges/s")
	res.set("detect_p50_ms", p50, "ms")
	res.set("cpu_us_per_edge", median(cpuUS), "us/edge")
	res.set("allocs_per_edge", median(allocs), "allocs/edge")
	res.set("state_mb", median(state), "MiB")
	if !cfg.trace {
		return res, nil
	}

	// Per-layer metrics: the traced executions, then every layer alone.
	if err := tracedMetrics(cfg, res, lat, eps, paced, tracedPass, traces); err != nil {
		return nil, err
	}
	res.set("setup.generate_s", median(genTimes), "s")
	res.set("setup.construct_s", median(constructs), "s")
	res.set("setup.warmup_s", median(warmups), "s")
	if err := layerLanes(in, res); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedMetrics reports what the traced executions measured: the delivery
// tail, the acknowledgement and pacing percentiles, the run's own noise, and
// the span self times; it writes the span file. lat is sorted milliseconds and
// not empty, eps the untraced passes' rates.
func tracedMetrics(cfg runConfig, res *result, lat, eps []float64, paced pacedStats, tracedPass *passStats, traces []*phaseTrace) error {
	lateMS := sortedMS(paced.lateness)
	ackMS := sortedMS(paced.acks)
	ack50, _ := percentile(ackMS, 0.50)
	ack99, _ := percentile(ackMS, 0.99)
	late99, _ := percentile(lateMS, 0.99)
	_, tail, ok := highestPercentile(lat, []float64{0.99})
	if !ok {
		tail = lat[len(lat)-1]
	}
	var mean float64
	for _, v := range lat {
		mean += v / float64(len(lat))
	}
	res.set("detect_p99_ms", tail, "ms")
	res.set("detect_mean_ms", mean, "ms")
	res.set("detect_samples", float64(len(lat)), "count")
	res.set("client.ack_p50_ms", ack50, "ms")
	res.set("client.ack_p99_ms", ack99, "ms")
	res.set("client.retries", float64(paced.retries+tracedPass.retries), "count")
	res.set("paced.late_p99_ms", late99, "ms")
	res.set("paced.backlog_max_batches", float64(paced.maxBacklog), "count")
	res.set("run.pass_spread_pct", spreadPct(eps), "%")
	res.set("run.gc_pause_ms", float64(tracedPass.gcPause)/1e6, "ms")
	res.set("run.heap_peak_mb", float64(tracedPass.heapSys)/(1<<20), "MiB")
	res.set("trace.overhead_pct", 100*(median(eps)-tracedPass.edgesPerSec())/median(eps), "%")
	var all []span
	for _, t := range traces {
		all = append(all, t.spans()...)
	}
	self := selfTimes(all)
	res.set("span.process_self_ms", float64(self[spanProcess]+self[spanIngest])/1e6, "ms")
	res.set("span.sink_self_ms", float64(self[spanSink])/1e6, "ms")
	path, err := writeSpans(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed), traces)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(all), path)
	return nil
}

// verified is what the untimed checks compared the delivered set against.
type verified struct {
	sha256      string
	groundTruth int // matches the generators' ground truth requires
	reference   int // matches of the independent reference engine
	refQueries  int // queries it ran
	refSeconds  float64
}

// verify checks the delivered set against the generators' ground truth, an
// independent reference engine, and the checked-in digest, recording every
// failure in res.
func verify(cfg runConfig, in *inputs, res *result, canonical []uint64, got *pacedRecorder) (verified, error) {
	want := expect(in)
	missed := 0
	gotEdges, gotVertices := sortedSet(got.edgeKeys), sortedSet(got.vertexKeys)
	for _, k := range want.edgeKeys {
		if !contains(gotEdges, k) {
			missed++
		}
	}
	for _, k := range want.vertexKeys {
		if !contains(gotVertices, k) {
			missed++
		}
	}
	v := verified{groundTruth: len(want.edgeKeys) + len(want.vertexKeys)}
	res.attempted += v.groundTruth
	if missed > 0 {
		res.fail(missed, "ground truth: %d of %d expected matches of %d injected attacks and event clusters not delivered",
			missed, v.groundTruth, want.instances)
	}
	t0 := time.Now()
	queries := in.refQueries(cfg.w)
	ref, err := referenceSet(cfg.w, in, queries)
	if err != nil {
		return v, err
	}
	v.reference, v.refQueries, v.refSeconds = len(ref), len(queries), time.Since(t0).Seconds()
	res.attempted += len(ref)
	delivered := canonical
	if got.refQueries != nil {
		delivered = sortedSet(got.refKeys)
	}
	if missing, extra := setDiff(ref, delivered); missing+extra > 0 {
		res.fail(missing+extra, "reference engine, %d of %d queries over the whole stream: %d matches missing, %d unexpected", len(queries), len(in.queries), missing, extra)
	}
	count, sum := digestOf(canonical)
	v.sha256 = sum
	digests, err := loadDigests(digestPath)
	if err != nil {
		return v, err
	}
	if cfg.updateDigests {
		digests[cfg.w.name] = digest{Seed: cfg.seed, Seconds: cfg.seconds, Matches: count, SHA256: sum}
		return v, saveDigests(digestPath, digests)
	}
	if d, ok := digests[cfg.w.name]; ok && d.Seed == cfg.seed && d.Seconds == cfg.seconds && (d.Matches != count || d.SHA256 != sum) {
		res.fail(1, "match set (%d, %s) differs from the checked-in digest (%d, %s)", count, sum[:12], d.Matches, d.SHA256[:12])
	}
	return v, nil
}

// fsTypeOf names the filesystem a directory lives on, from statfs.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext2/3/4", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// loadAverage reads the 1-minute load average; ok is false off Linux.
func loadAverage() (float64, bool) {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	var one float64
	if _, err := fmt.Sscanf(string(raw), "%f", &one); err != nil {
		return 0, false
	}
	return one, true
}
