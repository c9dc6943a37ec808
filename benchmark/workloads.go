package main

import (
	"context"
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/server"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/stream"
)

// batchSize is the ingest unit of every phase: the closed loop sends the
// next batch when the previous one is acknowledged, the open loop sends one
// batch per schedule tick.
const batchSize = 256

// Run shape. A run of `-seconds s` spends s*pacedShare in the paced phase and
// replays the same edges in each saturation pass: at 23 s and the calibrated
// rates that is 5 x 3 s closed loop and 8 s open loop, at the 17 s of
// BENCHMARK.json 5 x 2.2 s and 5.9 s.
const (
	passes       = 5
	pacedShare   = 8.0 / 23
	setupRepeats = 3 // set-ups that regenerate the inputs; setup_s is their median
)

var streamStart = graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))

// inputs is everything one run feeds the program under test, generated from
// the seed alone.
type inputs struct {
	edges   []graph.StreamEdge // warm-up prefix followed by the timed stream
	warm    int                // edges[:warm] is the warm-up prefix
	queries []*query.Graph
	engine  core.Config
	attacks []gen.AttackInstance // ground truth, complete inside edges
	events  []gen.NewsEvent      // ground truth, complete inside edges
	pos     []int32              // edge ID -> index in edges, -1 when absent
}

func (in *inputs) timed() []graph.StreamEdge { return in.edges[in.warm:] }

// refQueries is what w's reference engine registers: every query, or every
// stride-th one.
func (in *inputs) refQueries(w *workload) []*query.Graph {
	if w.refQueryStride <= 1 {
		return in.queries
	}
	var out []*query.Graph
	for i := 0; i < len(in.queries); i += w.refQueryStride {
		out = append(out, in.queries[i])
	}
	return out
}

// batchesOf cuts edges into the ingest batches every phase and lane sends.
func batchesOf(edges []graph.StreamEdge) [][]graph.StreamEdge {
	out := make([][]graph.StreamEdge, 0, (len(edges)+batchSize-1)/batchSize)
	for i := 0; i < len(edges); i += batchSize {
		out = append(out, edges[i:min(i+batchSize, len(edges))])
	}
	return out
}

// workload is one benchmark workload: how its inputs are generated and how
// the system under test is opened. The constant rate of its paced phase is not
// here: BENCHMARK.json holds it (see spec.go).
type workload struct {
	name     string
	generate func(seed int64, timed int) *inputs
	open     func(in *inputs, dataDir string) (*target, error)
	// refOptions build the independent in-process engine that replays the
	// whole stream, untimed, and whose match set the delivered set must equal.
	// When refQueryStride is above one, the reference registers every
	// stride-th query only and is compared with what was delivered for those.
	refOptions     func(in *inputs) []streamworks.Option
	refQueryStride int
	durable        bool // needs a WAL data directory
	served         bool // driven through the client: the ingest span is a round trip
}

var workloads = []*workload{
	{
		name:     "netflow-local",
		generate: genNetflow,
		open: func(in *inputs, _ string) (*target, error) {
			return openLocal(streamworks.New(streamworks.WithEngineConfig(in.engine))), nil
		},
		// The per-query SJ-Tree path is checked against the shared-plan DAG.
		refOptions: func(in *inputs) []streamworks.Option {
			return []streamworks.Option{streamworks.WithEngineConfig(in.engine), streamworks.WithSharedPlans(true)}
		},
	},
	{
		name:     "manyq-shared",
		generate: genManyQueries,
		open: func(in *inputs, _ string) (*target, error) {
			return openLocal(streamworks.New(streamworks.WithEngineConfig(in.engine))), nil
		},
		// 200 per-query SJ-Trees run at a third of the DAG's speed, so the
		// reference runs every eleventh query: 19 of them, of all eight
		// families (the variants cycle through the families in order).
		refOptions: func(in *inputs) []streamworks.Option {
			return []streamworks.Option{streamworks.WithEngineConfig(in.engine), streamworks.WithSharedPlans(false)}
		},
		refQueryStride: 11,
	},
	{
		name:     "news-served",
		generate: genNews,
		open:     openServed,
		served:   true,
		refOptions: func(in *inputs) []streamworks.Option {
			return []streamworks.Option{streamworks.WithEngineConfig(in.engine)}
		},
	},
	{
		name:     "netflow-durable", // the netflow-local stream and rate, so the difference is the WAL
		generate: genNetflow,
		open: func(in *inputs, dataDir string) (*target, error) {
			eng := streamworks.New(
				streamworks.WithEngineConfig(in.engine),
				streamworks.WithDataDir(dataDir),
				streamworks.WithFsyncPolicy("interval"),
				streamworks.WithSnapshotEvery(128),
			)
			if mode := eng.Durability().Mode; mode != "ok" {
				eng.Close()
				return nil, fmt.Errorf("durability %s in %s", mode, dataDir)
			}
			return openLocal(eng), nil
		},
		refOptions: func(in *inputs) []streamworks.Option {
			return []streamworks.Option{streamworks.WithEngineConfig(in.engine)}
		},
		durable: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- generation -------------------------------------------------------

const (
	netflowWindow = 30 * time.Second
	// netflowMinWarm stretches the warm-up past the first window (about
	// 30,500 edges), so that a set-up takes at least a second and the timed
	// stream starts with expiry and pruning already running.
	netflowMinWarm = 48 * 1024
	// attackDensity is injected attacks per kind per second of stream: with
	// a leg per amplifier, a match per hop and per chained hop, about 13
	// injected matches per second on top of the chance smurf legs, so the
	// paced phase sees well over 1,000.
	attackDensity = 0.8
)

// genNetflow builds the paper's cyber case: the gen.NewNetFlow background
// (2,000 hosts, 100 servers, Zipf 1.4, one edge per simulated millisecond)
// with smurf, worm and exfiltration attacks woven in, under the four Fig. 3
// queries at a 30 s window. The warm-up prefix is the first window and half of
// the next: the first fills the graph and the SJ-Tree partitions, expiry and
// pruning start with the second.
func genNetflow(seed int64, timed int) *inputs {
	cfg := gen.DefaultNetFlowConfig()
	cfg.Seed = seed
	cfg.Start = streamStart
	cfg.Edges = max(int(netflowWindow/cfg.MeanGap), netflowMinWarm) + timed
	flow := gen.NewNetFlow(cfg, nil)
	bg := flow.Generate()
	end := bg[len(bg)-1].Edge.Timestamp
	attackEdges, attacks := injectAttacks(seed, flow, cfg.Start, end, 10*time.Second)
	in := &inputs{
		edges: stream.Merge(bg, attackEdges),
		queries: []*query.Graph{
			gen.SmurfQuery(netflowWindow),
			gen.WormQuery(netflowWindow),
			gen.WormChainQuery(netflowWindow),
			gen.ExfiltrationQuery(netflowWindow),
		},
		engine:  core.Config{Retention: netflowWindow, EnableSummaries: true, TriadSampling: 10},
		attacks: attacks,
	}
	in.cut(cfg.Start.Add(netflowWindow), netflowMinWarm, timed)
	return in
}

func injectAttacks(seed int64, flow *gen.NetFlow, start, end graph.Timestamp, spread time.Duration) ([]graph.StreamEdge, []gen.AttackInstance) {
	icfg := gen.DefaultInjectorConfig()
	icfg.Seed = seed + 7919
	icfg.Spread = spread
	inj := gen.NewInjector(icfg, flow.Hosts(), flow.Sequence())
	perKind := int(attackDensity * end.Sub(start).Seconds())
	var parts [][]graph.StreamEdge
	var truth []gen.AttackInstance
	for _, kind := range []gen.AttackKind{gen.AttackSmurf, gen.AttackWorm, gen.AttackExfiltration} {
		es, insts := inj.Inject(kind, perKind, start, end)
		parts = append(parts, es)
		truth = append(truth, insts...)
	}
	return stream.Merge(parts...), truth
}

const (
	manyqQueries = 200
	manyqWindow  = 1 * time.Second
	manyqGap     = 8 * time.Millisecond
	// manyqMinWarm: the widest variant window holds about 10,000 edges, which
	// the DAG takes in a fifth of a second.
	manyqMinWarm = 34 * 1024
)

// genManyQueries builds the merged netflow+news stream over one ID space
// under 200 gen.QueryVariants, like gen.ManyQueriesWorkload but with the news
// side aligned in time with the netflow side (there it runs on alone after
// the netflow edges end) and with the ground truth kept.
//
// About 13 matches per edge, nine tenths of them from injected structures
// whose match count is fixed: every story is an event cluster of three
// articles, which each of the 25 news2 and 25 news3 variants matches six
// times, and every attack leg or hop matches its family's 25 variants once.
// Chance co-mentions are kept rare (one keyword per article, 20,000
// locations): left to chance, the triples grow with the cube of a cell's
// occupancy and the match count moved by 10% from seed to seed.
func genManyQueries(seed int64, timed int) *inputs {
	queries := gen.QueryVariants(manyqQueries, manyqWindow)
	var retention time.Duration
	for _, q := range queries {
		retention = max(retention, q.Window())
	}
	const (
		storiesPerSecond    = 16 // event clusters, three articles each
		backgroundPerSecond = 3  // articles outside any cluster
		edgesPerArticle     = 4.5
	)
	// Edges per second of stream: netflow background plus articles.
	rate := float64(time.Second)/float64(manyqGap) + edgesPerArticle*(backgroundPerSecond+3*storiesPerSecond)
	seconds := max(retention.Seconds(), manyqMinWarm/rate) + float64(timed)/rate + 1

	cfg := gen.DefaultNetFlowConfig()
	cfg.Seed = seed
	cfg.Start = streamStart
	cfg.MeanGap = manyqGap
	cfg.Edges = int(seconds * float64(time.Second) / float64(manyqGap))
	flow := gen.NewNetFlow(cfg, nil)
	bg := flow.Generate()
	end := bg[len(bg)-1].Edge.Timestamp
	attackEdges, attacks := injectAttacks(seed, flow, cfg.Start, end, manyqWindow/2)

	ncfg := gen.DefaultNewsConfig()
	ncfg.Seed = seed + 104729
	ncfg.Start = streamStart
	ncfg.Gap = time.Second / backgroundPerSecond
	ncfg.Articles = int(seconds * backgroundPerSecond)
	ncfg.Keywords = 4000
	ncfg.Locations = 20000
	ncfg.KeywordSkew = 1.1
	ncfg.KeywordsPerArticle = 1
	ncfg.EventClusters = int(seconds * storiesPerSecond)
	ncfg.EventArticles = 3
	ncfg.EventSpan = 10 * manyqWindow
	articles, events := gen.NewNews(ncfg, flow.Sequence()).Generate()

	in := &inputs{
		edges:   stream.Merge(bg, attackEdges, articles),
		queries: queries,
		engine:  core.Config{Retention: retention, EnableSummaries: true, TriadSampling: 10, SharedPlans: true},
		attacks: attacks,
		events:  events,
	}
	in.cut(cfg.Start.Add(retention), manyqMinWarm, timed)
	return in
}

const (
	newsWindow = 20 * time.Minute
	// newsMinWarm makes the served set-up heavy enough to time: the window
	// alone is a few thousand edges, which the daemon ingests in tens of
	// milliseconds.
	newsMinWarm = 80 * 1024
)

// genNews builds the paper's Fig. 2 case: an article/keyword/location/person
// stream with injected event clusters under the two-article co-mention
// query.
func genNews(seed int64, timed int) *inputs {
	cfg := gen.DefaultNewsConfig()
	cfg.Seed = seed
	cfg.Start = streamStart
	cfg.Articles = (newsMinWarm+timed)/6 + 1000
	cfg.Keywords = 4000
	cfg.Locations = 300
	cfg.EventClusters = cfg.Articles / 100
	cfg.EventSpan = newsWindow / 2
	edges, events := gen.NewNews(cfg, nil).Generate()
	in := &inputs{
		edges:   edges,
		queries: []*query.Graph{gen.NewsEventQuery(newsWindow, 2, "")},
		engine:  core.Config{Retention: newsWindow, EnableSummaries: true, TriadSampling: 10},
		events:  events,
	}
	in.cut(cfg.Start.Add(newsWindow), newsMinWarm, timed)
	return in
}

// cut fixes the warm-up prefix (every edge before warmUntil, at least
// minWarm edges), truncates the stream to warm + timed edges, drops ground
// truth that the truncation cut into, and indexes edge positions.
func (in *inputs) cut(warmUntil graph.Timestamp, minWarm, timed int) {
	warm := 0
	for warm < len(in.edges) && in.edges[warm].Edge.Timestamp < warmUntil {
		warm++
	}
	warm = max(warm, minWarm)
	// Whole batches keep the batch boundaries of warm-up and timed stream
	// independent of each other.
	warm -= warm % batchSize
	timed -= timed % batchSize
	if warm+timed > len(in.edges) {
		panic(fmt.Sprintf("generated %d edges, need %d warm-up + %d timed", len(in.edges), warm, timed))
	}
	in.warm = warm
	in.edges = in.edges[:warm+timed]
	shareVertexAttributes(in.edges)
	last := in.edges[len(in.edges)-1].Edge.Timestamp

	var maxID graph.EdgeID
	for i := range in.edges {
		maxID = max(maxID, in.edges[i].Edge.ID)
	}
	in.pos = make([]int32, maxID+1)
	for i := range in.pos {
		in.pos[i] = -1
	}
	for i := range in.edges {
		in.pos[in.edges[i].Edge.ID] = int32(i)
	}

	attacks := in.attacks[:0]
	for _, a := range in.attacks {
		if a.End < last {
			attacks = append(attacks, a)
		}
	}
	in.attacks = attacks
	events := in.events[:0]
	for _, e := range in.events {
		if e.End < last {
			events = append(events, e)
		}
	}
	in.events = events
}

// shareVertexAttributes makes edges that repeat a vertex's attributes point
// at one map. The generators allocate the endpoint attributes afresh on every
// edge (two maps per news edge); the inputs stay resident for six replays, and
// every collection the engine triggers would otherwise re-mark them all. The
// engine aliases attribute maps and copies on write, so sharing is invisible
// to it.
func shareVertexAttributes(edges []graph.StreamEdge) {
	seen := map[graph.VertexID]graph.Attributes{}
	share := func(v graph.VertexID, a graph.Attributes) graph.Attributes {
		if a == nil {
			return nil
		}
		if prev, ok := seen[v]; ok && maps.Equal(prev, a) {
			return prev
		}
		seen[v] = a
		return a
	}
	for i := range edges {
		e := &edges[i]
		e.SourceAttrs = share(e.Edge.Source, e.SourceAttrs)
		e.TargetAttrs = share(e.Edge.Target, e.TargetAttrs)
	}
}

// position returns the stream index of a data edge, or -1.
func (in *inputs) position(id uint64) int {
	if id >= uint64(len(in.pos)) {
		return -1
	}
	return int(in.pos[id])
}

// ---- the system under test --------------------------------------------

// target is one opened instance of the system under test behind the public
// Engine surface. The program receives generated inputs only; nothing in
// here tells it which workload is running.
type target struct {
	eng streamworks.Engine
	sub streamworks.Subscription // the one subscriber, set by setUp
	// drain returns once every edge offered so far is processed and every
	// match it produced has reached the subscriber. In-process delivery is
	// synchronous, so only the served target has work to do here; it may be
	// called once, after which the target accepts no more edges.
	drain func() error
	// counters reads the engine counters; on the served target it is also a
	// processing barrier (the request queues behind every routed edge). It
	// must run before drain.
	counters func() (core.Metrics, error)
	close    func()
}

func openLocal(eng *streamworks.Local) *target {
	return &target{
		eng:      eng,
		drain:    func() error { return nil },
		counters: func() (core.Metrics, error) { return eng.Metrics(context.Background()) },
		close:    func() { eng.Close() },
	}
}

// openServed starts the daemon's serving layer on a real loopback TCP
// listener with two shards and connects to it over the binary transport: one
// keep-alive connection carries the ingest requests, a second the match
// subscription.
func openServed(in *inputs, _ string) (*target, error) {
	srv, url, stop, err := serveLoopback(server.Config{
		Shard: shard.Config{Shards: 2, Engine: in.engine},
		// A saturated closed loop delivers matches in bursts; the default
		// 256-match buffer would evict the subscriber mid-pass.
		SubscriberBuffer: 1 << 16,
	})
	if err != nil {
		return nil, err
	}
	rem, err := streamworks.Connect(context.Background(), url, streamworks.WithTransport(streamworks.TransportBinary))
	if err != nil {
		stop()
		return nil, err
	}
	t := &target{eng: rem}
	// Closing the server drains it: queued batches flush through the shards,
	// the merged event stream runs dry and the subscriber's stream ends after
	// its final match.
	t.drain = func() error {
		srv.Close()
		<-t.sub.Done()
		return t.sub.Err()
	}
	t.counters = func() (core.Metrics, error) { return rem.Metrics(context.Background()) }
	t.close = func() {
		rem.Close()
		stop()
	}
	return t, nil
}

// serveLoopback starts the daemon's serving layer on a loopback TCP listener
// and returns its base URL; stop drains the server and closes the listener.
func serveLoopback(cfg server.Config) (srv *server.Server, url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv = server.New(cfg)
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed once hs.Close runs
	}()
	stop = func() {
		srv.Close()
		hs.Close()
		<-served
	}
	return srv, "http://" + ln.Addr().String(), stop, nil
}

// dataDir creates a fresh WAL directory under base for one execution of a
// durable workload; the returned function removes it.
func newDataDir(base string) (string, func(), error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "wal-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
