package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"github.com/streamworks/streamworks/internal/baseline"
	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/loader"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/sjtree"
	"github.com/streamworks/streamworks/internal/stats"
	"github.com/streamworks/streamworks/internal/stream"
	"github.com/streamworks/streamworks/internal/wal"
	"github.com/streamworks/streamworks/internal/wire"
)

// The per-layer lanes drive each module's public functions alone, over the
// same workload bytes the end-to-end phases replay. They are informational:
// a layer number says where time goes, never whether a change is accepted.

const (
	// laneEdges is how much of the timed stream each lane replays after the
	// (untimed) warm-up prefix.
	laneEdges = 20000
	// laneQueries bounds the per-query lanes (isomorphism, sjtree, export,
	// shard dedup, baseline): the many-queries workload's 200 per-query trees
	// would take longer than the run they explain.
	laneQueries   = 8
	baselineEdges = 20000
	// baselineBudget caps the repeated-search baseline, whose cost per batch
	// grows with the matches in the window.
	baselineBudget = 1500 * time.Millisecond
	pruneEvery     = 1024 // core.DefaultConfig's PruneInterval
)

// stopwatch accumulates the time of individual calls, minus the cost of
// reading the clock twice, which at a microsecond per call is not noise.
type stopwatch struct {
	total int64
	calls int64
}

var clockCost = func() int64 {
	const n = 200000
	t0 := nanotime()
	for i := 0; i < n; i++ {
		nanotime()
	}
	return (nanotime() - t0) / n
}()

func (s *stopwatch) add(start int64) {
	s.total += nanotime() - start - clockCost
	s.calls++
}

func (s *stopwatch) per(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(max(s.total, 0)) / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// laneRetention is the sliding window the engine ends up with: the
// configured retention, widened to the widest registered query window.
func laneRetention(in *inputs, queries []*query.Graph) time.Duration {
	r := in.engine.Retention
	for _, q := range queries {
		r = max(r, q.Window())
	}
	return r
}

func layerLanes(in *inputs, res *result) error {
	end := min(len(in.edges), in.warm+laneEdges)
	head := in.edges[:end] // warm-up prefix, then the lane's share of the timed stream
	timed := head[in.warm:]
	few := in.queries[:min(len(in.queries), laneQueries)]

	codecLanes(timed, res)
	events := coreLane(in, head, res)
	exportLane(in, events, res)
	perQueryLanes(in, few, head, res)
	if err := mqoLane(in, head, res); err != nil {
		return err
	}
	if err := decomposeLane(in, res); err != nil {
		return err
	}
	if err := shardLanes(in, few, head, res); err != nil {
		return err
	}
	if err := serverLanes(in, timed, res); err != nil {
		return err
	}
	if err := walLane(in, timed, res); err != nil {
		return err
	}
	baselineLane(in, res)

	core := res.metrics["core.process_ns_per_edge"].Value
	sum := 0.0
	for _, n := range []string{"graph.apply_ns_per_edge", "stats.observe_ns_per_edge", "isomorphism.search_ns_per_edge", "sjtree.prune_ns_per_edge"} {
		sum += res.metrics[n].Value
	}
	sum += res.metrics["sjtree.insert_ns_per_match"].Value * res.metrics["sjtree.inserts_per_edge"].Value
	sum += res.metrics["export.build_report_ns_per_match"].Value * res.metrics["core.matches_per_edge"].Value
	if core > 0 {
		res.set("ledger.closure", sum/core, "ratio")
	} else {
		res.set("ledger.closure", 0, "ratio")
	}
	return nil
}

// codecLanes times the two edge encodings in both directions.
func codecLanes(edges []graph.StreamEdge, res *result) {
	n := len(edges)
	var buf bytes.Buffer
	t0 := nanotime()
	if err := loader.WriteJSONL(&buf, edges); err != nil {
		panic(err) // a generated edge always encodes
	}
	encode := nanotime() - t0
	size := buf.Len()
	t0 = nanotime()
	back, err := loader.ReadJSONL(&buf)
	decode := nanotime() - t0
	if err != nil || len(back) != n {
		panic(fmt.Sprintf("loader round trip: %d of %d edges, %v", len(back), n, err))
	}
	res.set("loader.encode_ns_per_edge", float64(encode)/float64(n), "ns/edge")
	res.set("loader.decode_ns_per_edge", float64(decode)/float64(n), "ns/edge")
	res.set("loader.bytes_per_edge", float64(size)/float64(n), "B/edge")

	frames := append([]byte(nil), wire.StreamMagic...)
	var scratch []byte
	t0 = nanotime()
	for _, se := range edges {
		frames, scratch = wire.AppendEdgeFrame(frames, scratch, se)
	}
	encode = nanotime() - t0
	rd := wire.NewReader(bytes.NewReader(frames))
	t0 = nanotime()
	for i := 0; i < n; i++ {
		_, payload, err := rd.Next()
		if err == nil {
			_, err = wire.DecodeEdge(payload)
		}
		if err != nil {
			panic(fmt.Sprintf("wire round trip: edge %d: %v", i, err))
		}
	}
	decode = nanotime() - t0
	res.set("wire.edge_encode_ns", float64(encode)/float64(n), "ns/edge")
	res.set("wire.edge_decode_ns", float64(decode)/float64(n), "ns/edge")
	res.set("wire.edge_bytes", float64(len(frames)-len(wire.StreamMagic))/float64(n), "B/edge")
}

// coreLane drives core.Engine.ProcessEdge without the public wrapper, and
// keeps the match events of the timed part for the export and match-codec
// lanes.
func coreLane(in *inputs, stream []graph.StreamEdge, res *result) []core.MatchEvent {
	cfg := in.engine
	eng := core.New(&cfg)
	for _, q := range in.queries {
		if _, err := eng.RegisterQuery(q); err != nil {
			panic(fmt.Sprintf("core lane: %v", err))
		}
	}
	var events []core.MatchEvent
	keep := false
	eng.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) {
		if keep && len(events) < 50000 {
			events = append(events, ev)
		}
	}))
	for _, se := range stream[:in.warm] {
		eng.ProcessEdge(se)
	}
	before := eng.Metrics()
	keep = true
	t0 := nanotime()
	for _, se := range stream[in.warm:] {
		eng.ProcessEdge(se)
	}
	elapsed := nanotime() - t0
	after := eng.Metrics()
	n := len(stream) - in.warm
	res.set("core.process_ns_per_edge", float64(elapsed)/float64(n), "ns/edge")
	res.set("core.matches_per_edge", float64(after.MatchesEmitted-before.MatchesEmitted)/float64(n), "1/edge")
	res.set("core.local_searches_per_edge", float64(after.LocalSearches-before.LocalSearches)/float64(n), "1/edge")
	res.set("core.partials_pruned_per_edge", float64(after.PartialsPruned-before.PartialsPruned)/float64(n), "1/edge")
	return events
}

// exportLane times the resolution of match events into reports, then the
// binary match codec over those reports.
func exportLane(in *inputs, events []core.MatchEvent, res *result) {
	byName := map[string]*query.Graph{}
	for _, q := range in.queries {
		byName[q.Name()] = q
	}
	reports := make([]export.MatchReport, 0, len(events))
	t0 := nanotime()
	for _, ev := range events {
		reports = append(reports, export.BuildReport(ev, byName[ev.Query], nil))
	}
	build := nanotime() - t0
	n := max(len(reports), 1)
	res.set("export.build_report_ns_per_match", float64(build)/float64(n), "ns/match")

	var frames, scratch []byte
	offsets := make([]int, 0, len(reports)+1)
	t0 = nanotime()
	for _, rep := range reports {
		offsets = append(offsets, len(frames))
		frames, scratch = wire.AppendMatchFrame(frames, scratch, rep)
	}
	encode := nanotime() - t0
	offsets = append(offsets, len(frames))
	t0 = nanotime()
	for i := range reports {
		_, payload, _, err := wire.DecodeFrame(frames[offsets[i]:offsets[i+1]])
		if err == nil {
			_, err = wire.DecodeMatch(payload)
		}
		if err != nil {
			panic(fmt.Sprintf("wire match round trip: %v", err))
		}
	}
	decode := nanotime() - t0
	res.set("wire.match_encode_ns", float64(encode)/float64(n), "ns/match")
	res.set("wire.match_decode_ns", float64(decode)/float64(n), "ns/match")
	res.set("wire.match_bytes", float64(len(frames))/float64(n), "B/match")
}

// perQueryLanes rebuilds the per-query evaluation step from the layers'
// public functions — window maintenance, summaries, one local search per plan
// leaf an arriving edge can seed, SJ-Tree inserts of the primitive matches,
// pruning — and times each layer's calls on its own.
func perQueryLanes(in *inputs, queries []*query.Graph, stream []graph.StreamEdge, res *result) {
	type candidate struct {
		leaf  *sjtree.Node
		qe    query.EdgeID
		order []query.EdgeID
	}
	type registration struct {
		q       *query.Graph
		tree    *sjtree.Tree
		matcher *isomorphism.Matcher
		byType  map[string][]candidate
	}
	expired := map[graph.EdgeID]struct{}{}
	dyn := graph.NewDynamic(laneRetention(in, queries), graph.WithSlack(in.engine.Slack),
		graph.WithExpiryCallback(func(e *graph.Edge) { expired[e.ID] = struct{}{} }))
	summary := stats.NewSummary(stats.WithTriadSampling(in.engine.TriadSampling))
	planner := decompose.NewPlanner(stats.NewEstimator(summary))
	var regs []*registration
	for _, q := range queries {
		plan, err := planner.Plan(q, decompose.StrategySelective)
		if err != nil {
			panic(fmt.Sprintf("per-query lane: planning %s: %v", q.Name(), err))
		}
		tree, err := sjtree.New(plan)
		if err != nil {
			panic(fmt.Sprintf("per-query lane: %v", err))
		}
		r := &registration{q: q, tree: tree, matcher: isomorphism.New(q), byType: map[string][]candidate{}}
		for _, leaf := range tree.Leaves() {
			for _, qe := range leaf.Edges() {
				if order := r.matcher.ConnectedOrder(leaf.Edges(), qe); order != nil {
					t := q.Edge(qe).Type
					r.byType[t] = append(r.byType[t], candidate{leaf, qe, order})
				}
			}
		}
		regs = append(regs, r)
	}

	var apply, observe, search, insert, prune stopwatch
	var searches, hits uint64
	var prims []*match.Match
	type joinCounters struct{ attempts, hits uint64 }
	joins := func() (c joinCounters, stored int) {
		for _, r := range regs {
			for _, ns := range r.tree.Stats().PerNodeStored {
				c.attempts += ns.JoinAttempts
				c.hits += ns.JoinHits
				stored += ns.Stored
			}
		}
		return
	}
	var joinsAtWarm joinCounters
	var expiredAtWarm uint64
	for i, se := range stream {
		timing := i >= in.warm
		if i == in.warm {
			joinsAtWarm, _ = joins()
			expiredAtWarm = dyn.ExpiredTotal()
		}
		t := nanotime()
		stored, err := dyn.Apply(se)
		if timing {
			apply.add(t)
		}
		if err != nil {
			continue
		}
		t = nanotime()
		summary.Observe(se, dyn.Graph())
		if timing {
			observe.add(t)
		}
		for _, r := range regs {
			for _, typ := range [2]string{stored.Type, ""} {
				if typ == "" && stored.Type == "" {
					break
				}
				for ci := range r.byType[typ] {
					c := &r.byType[typ][ci]
					if !r.q.Edge(c.qe).MatchesEdge(stored) {
						continue
					}
					t = nanotime()
					prims = r.matcher.LocalSearchInto(prims[:0], dyn.Graph(), c.order, stored)
					if timing {
						search.add(t)
						searches++
						if len(prims) > 0 {
							hits++
						}
					}
					for _, pm := range prims {
						t = nanotime()
						r.tree.Insert(c.leaf, pm)
						if timing {
							insert.add(t)
						}
					}
				}
			}
		}
		if (i+1)%pruneEvery == 0 {
			t = nanotime()
			for _, r := range regs {
				if w := r.q.Window(); w > 0 {
					r.tree.Prune(dyn.Watermark() - graph.Timestamp(w))
				} else {
					r.tree.PruneExpiredEdges(expired)
				}
			}
			clear(expired)
			if timing {
				prune.add(t)
			}
		}
	}
	n := len(stream) - in.warm
	joinsAtEnd, stored := joins()
	res.set("graph.apply_ns_per_edge", apply.per(n), "ns/edge")
	res.set("graph.live_edges", float64(dyn.NumEdges()), "count")
	res.set("graph.expired_per_edge", float64(dyn.ExpiredTotal()-expiredAtWarm)/float64(n), "1/edge")
	res.set("stats.observe_ns_per_edge", observe.per(n), "ns/edge")
	res.set("isomorphism.search_ns_per_edge", search.per(n), "ns/edge")
	res.set("isomorphism.searches_per_edge", float64(searches)/float64(n), "1/edge")
	res.set("isomorphism.hit_ratio", ratio(hits, searches), "ratio")
	res.set("sjtree.insert_ns_per_match", insert.per(int(insert.calls)), "ns/match")
	res.set("sjtree.inserts_per_edge", float64(insert.calls)/float64(n), "1/edge")
	res.set("sjtree.join_probes_per_edge", float64(joinsAtEnd.attempts-joinsAtWarm.attempts)/float64(n), "1/edge")
	res.set("sjtree.join_hit_ratio", ratio(joinsAtEnd.hits-joinsAtWarm.hits, joinsAtEnd.attempts-joinsAtWarm.attempts), "ratio")
	res.set("sjtree.partials_stored", float64(stored), "count")
	res.set("sjtree.prune_ns_per_edge", prune.per(n), "ns/edge")
}

// mqoLane folds every query into one shared DAG and times attachment and the
// per-edge pass.
func mqoLane(in *inputs, stream []graph.StreamEdge, res *result) error {
	expired := map[graph.EdgeID]struct{}{}
	dyn := graph.NewDynamic(laneRetention(in, in.queries), graph.WithSlack(in.engine.Slack),
		graph.WithExpiryCallback(func(e *graph.Edge) { expired[e.ID] = struct{}{} }))
	dag := mqo.New(dyn)
	planner := decompose.NewPlanner(stats.NewEstimator(nil))
	var attach stopwatch
	for _, q := range in.queries {
		plan, err := planner.Plan(q, decompose.StrategySelective)
		if err != nil {
			return fmt.Errorf("mqo lane: planning %s: %w", q.Name(), err)
		}
		t := nanotime()
		_, err = dag.Attach(q.Name(), q, plan, mqo.AttachOptions{Emit: func(*match.Match) {}})
		attach.add(t)
		if err != nil {
			return fmt.Errorf("mqo lane: %w", err)
		}
	}
	var process stopwatch
	var searchesAtWarm, sharedAtWarm uint64
	for i, se := range stream {
		if i == in.warm {
			searchesAtWarm, sharedAtWarm = dag.LocalSearches(), dag.SharedHits()
		}
		stored, err := dyn.Apply(se)
		if err != nil {
			continue
		}
		t := nanotime()
		dag.ProcessEdge(stored)
		if (i+1)%pruneEvery == 0 {
			dag.Prune(dyn.Watermark(), expired)
			clear(expired)
		}
		if i >= in.warm {
			process.add(t)
		}
	}
	n := len(stream) - in.warm
	searches, shared := dag.LocalSearches()-searchesAtWarm, dag.SharedHits()-sharedAtWarm
	res.set("mqo.process_ns_per_edge", process.per(n), "ns/edge")
	res.set("mqo.searches_per_edge", float64(searches)/float64(n), "1/edge")
	res.set("mqo.shared_hit_ratio", ratio(shared, shared+searches), "ratio")
	res.set("mqo.dag_nodes", float64(dag.NumNodes()), "count")
	res.set("mqo.attach_ms_per_query", attach.per(len(in.queries))/1e6, "ms/query")
	return nil
}

// decomposeLane plans every query under every strategy.
func decomposeLane(in *inputs, res *result) error {
	planner := decompose.NewPlanner(stats.NewEstimator(nil))
	plans := 0
	t0 := nanotime()
	for _, q := range in.queries {
		for _, s := range decompose.Strategies() {
			if _, err := planner.Plan(q, s); err != nil {
				return fmt.Errorf("decompose lane: %s under %s: %w", q.Name(), s, err)
			}
			plans++
		}
	}
	res.set("decompose.plan_us_per_query", float64(nanotime()-t0)/1e3/float64(plans), "us/plan")
	return nil
}

// shardLanes times the two-shard front-end with no query registered (router,
// mailboxes and flush; the workers only maintain their windows), then reads
// partition skew and cross-shard duplicate drops with queries registered.
func shardLanes(in *inputs, queries []*query.Graph, stream []graph.StreamEdge, res *result) error {
	eng := shard.New(&shard.Config{Shards: 2, Engine: in.engine})
	eng.Start()
	t0 := nanotime()
	for _, se := range stream[in.warm:] {
		if err := eng.Process(se); err != nil {
			eng.Close()
			return fmt.Errorf("shard lane: %w", err)
		}
	}
	if err := eng.Flush(); err != nil {
		eng.Close()
		return fmt.Errorf("shard lane: %w", err)
	}
	elapsed := nanotime() - t0
	eng.Close()
	n := len(stream) - in.warm
	res.set("shard.route_ns_per_edge", float64(elapsed)/float64(n), "ns/edge")

	eng = shard.New(&shard.Config{Shards: 2, Engine: in.engine})
	for _, q := range queries {
		if err := eng.RegisterQuery(q); err != nil {
			return fmt.Errorf("shard lane: registering %s: %w", q.Name(), err)
		}
	}
	eng.Start()
	for _, se := range stream {
		if err := eng.Process(se); err != nil {
			eng.Close()
			return fmt.Errorf("shard lane: %w", err)
		}
	}
	if err := eng.Flush(); err != nil {
		eng.Close()
		return fmt.Errorf("shard lane: %w", err)
	}
	perShard, merged := eng.PerShardMetrics(), eng.Metrics()
	eng.Close()
	var most, total, found uint64
	for _, m := range perShard {
		most = max(most, m.EdgesProcessed)
		total += m.EdgesProcessed
		found += m.MatchesEmitted
	}
	res.set("shard.skew", ratio(most*uint64(len(perShard)), total), "ratio")
	res.set("shard.dup_drop_ratio", 1-ratio(merged.MatchesEmitted, max(found, 1)), "ratio")
	if found == 0 {
		res.set("shard.dup_drop_ratio", 0, "ratio")
	}
	return nil
}

// serverLanes posts the lane's edges to a daemon with no query registered —
// decode, queue and acknowledge only — over each of the three ingest
// transports, on a real loopback listener.
func serverLanes(in *inputs, edges []graph.StreamEdge, res *result) error {
	ctx := context.Background()
	var shed uint64
	lane := func(name string, transport client.Transport, session bool) error {
		_, url, stop, err := serveLoopback(server.Config{Shard: shard.Config{Shards: 2, Engine: in.engine}})
		if err != nil {
			return err
		}
		defer stop()
		c := client.New(url, client.WithTransport(transport))
		t0 := nanotime()
		if session {
			es, err := c.OpenEdgeStream(ctx)
			if err != nil {
				return err
			}
			for _, batch := range batchesOf(edges) {
				if err := es.Send(batch); err != nil {
					return err
				}
			}
			if _, err := es.Close(); err != nil {
				return err
			}
		} else {
			for _, batch := range batchesOf(edges) {
				if _, err := c.IngestBatch(ctx, batch, true); err != nil {
					return err
				}
			}
		}
		elapsed := nanotime() - t0
		if m, err := c.Metrics(ctx); err == nil {
			shed += m.Server.BatchesRejected
		}
		res.set(name, float64(elapsed)/float64(len(edges)), "ns/edge")
		return nil
	}
	if err := lane("server.ingest_binary_ns_per_edge", client.TransportBinary, false); err != nil {
		return fmt.Errorf("server lane (binary): %w", err)
	}
	if err := lane("server.ingest_ndjson_ns_per_edge", client.TransportNDJSON, false); err != nil {
		return fmt.Errorf("server lane (ndjson): %w", err)
	}
	if err := lane("server.ingest_stream_ns_per_edge", client.TransportBinary, true); err != nil {
		return fmt.Errorf("server lane (stream): %w", err)
	}
	res.set("server.shed_429", float64(shed), "count")
	return nil
}

// walLane appends the lane's edges to a write-ahead log on the real
// filesystem under the output directory, snapshots it, and reopens it.
func walLane(in *inputs, edges []graph.StreamEdge, res *result) error {
	dir, remove, err := newDataDir(filepath.Join(outDir, "data"))
	if err != nil {
		return err
	}
	defer remove()
	opts := wal.Options{
		Dir:           dir,
		Fsync:         wal.FsyncInterval,
		SnapshotEvery: -1,
		Retention:     laneRetention(in, in.queries),
		Slack:         in.engine.Slack,
	}
	man, _, err := wal.Open(opts)
	if err != nil {
		return fmt.Errorf("wal lane: %w", err)
	}
	t0 := nanotime()
	for _, batch := range batchesOf(edges) {
		if err := man.AppendEdges(batch); err != nil {
			man.Close()
			return fmt.Errorf("wal lane: %w", err)
		}
	}
	appendNS := nanotime() - t0
	st := man.Stats()
	t0 = nanotime()
	err = man.Snapshot()
	snapshot := nanotime() - t0
	if err == nil {
		err = man.Close()
	}
	if err != nil {
		return fmt.Errorf("wal lane: %w", err)
	}
	t0 = nanotime()
	man, rec, err := wal.Open(opts)
	recoverNS := nanotime() - t0
	if err != nil {
		return fmt.Errorf("wal lane: reopening: %w", err)
	}
	recovered := 0
	for _, op := range rec.Ops {
		recovered += len(op.Edges)
	}
	man.Close()
	if recovered == 0 {
		return fmt.Errorf("wal lane: reopening %s recovered no edges", dir)
	}
	n := len(edges)
	res.set("wal.append_ns_per_edge", float64(appendNS)/float64(n), "ns/edge")
	res.set("wal.bytes_per_edge", float64(st.Bytes)/float64(n), "B/edge")
	res.set("wal.fsyncs_per_kedge", 1000*float64(st.Fsyncs)/float64(n), "1/kedge")
	res.set("wal.snapshot_ms", float64(snapshot)/1e6, "ms")
	res.set("wal.recover_ms", float64(recoverNS)/1e6, "ms")
	fmt.Printf("wal lane: %s on %s\n", dir, fsTypeOf(dir))
	return nil
}

// baselineLane is the paper's own comparison: the incremental engine against
// repeated search and naive expansion over the head of the stream, with the
// three match sets required to be equal. Repeated search costs a full search
// of the window per batch — on a match-dense stream, most of a second per
// batch — so it runs first, under a time budget, and the other two replay
// exactly the edges it got through.
func baselineLane(in *inputs, res *result) {
	queries := in.queries[:min(len(in.queries), 4)]
	// The baselines filter on each query's window themselves; a retention
	// wider than the widest window keeps a match's first edge alive until
	// the batch that completes it has been searched.
	retention := 2 * laneRetention(in, queries)
	keys := func(events []core.MatchEvent) []uint64 {
		out := make([]uint64, 0, len(events))
		for _, ev := range events {
			out = append(out, sigKey(ev.Query, ev.Match.Signature()))
		}
		return sortedSet(out)
	}

	rc := baseline.NewRecompute(retention, in.engine.Slack)
	ne := baseline.NewNaiveExpand(retention, in.engine.Slack)
	// All three search the same graph for the same patterns; the stream
	// summaries, which only the engine keeps (for planning), stay off.
	cfg := in.engine
	cfg.SharedPlans, cfg.EnableSummaries = false, false
	eng := core.New(&cfg)
	for _, q := range queries {
		rc.RegisterQuery(q)
		ne.RegisterQuery(q)
		if _, err := eng.RegisterQuery(q); err != nil {
			panic(fmt.Sprintf("baseline lane: %v", err))
		}
	}

	var recomputed, expanded, incremental []core.MatchEvent
	n := 0
	t0 := nanotime()
	for _, batch := range batchesOf(in.edges[:min(len(in.edges), baselineEdges)]) {
		if nanotime()-t0 > int64(baselineBudget) {
			break
		}
		recomputed = append(recomputed, rc.ProcessBatch(stream.Batch{Edges: batch})...)
		n += len(batch)
	}
	recomputeNS := nanotime() - t0
	edges := in.edges[:n]
	t0 = nanotime()
	for _, se := range edges {
		expanded = append(expanded, ne.ProcessEdge(se)...)
	}
	naiveNS := nanotime() - t0
	t0 = nanotime()
	for _, se := range edges {
		incremental = append(incremental, eng.ProcessEdge(se)...)
	}
	incrementalNS := nanotime() - t0

	want := keys(incremental)
	if missing, extra := setDiff(want, keys(recomputed)); missing+extra > 0 {
		res.fail(missing+extra, "baseline: Recompute misses %d and adds %d of the engine's %d matches", missing, extra, len(want))
	}
	if missing, extra := setDiff(want, keys(expanded)); missing+extra > 0 {
		res.fail(missing+extra, "baseline: NaiveExpand misses %d and adds %d of the engine's %d matches", missing, extra, len(want))
	}
	res.set("baseline.recompute_ns_per_edge", float64(recomputeNS)/float64(n), "ns/edge")
	res.set("baseline.naive_ns_per_edge", float64(naiveNS)/float64(n), "ns/edge")
	res.set("baseline.incremental_speedup", float64(recomputeNS)/float64(incrementalNS), "x")
	fmt.Printf("baseline: %d edges, %d queries, %d matches; incremental %.0f ns/edge, naive expansion %.0f, repeated search %.0f\n",
		n, len(queries), len(want), float64(incrementalNS)/float64(n), float64(naiveNS)/float64(n), float64(recomputeNS)/float64(n))
}
