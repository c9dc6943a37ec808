package gen

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/baseline"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/loader"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
	"github.com/streamworks/streamworks/internal/stream"
)

// Workload bundles a named, time-ordered edge stream with the continuous
// queries evaluated over it and an engine configuration sized for it. It is
// the unit the sharded driver replays when comparing single-engine and
// N-shard runs.
type Workload struct {
	Name    string
	Edges   []graph.StreamEdge
	Queries []*query.Graph
	Engine  core.Config
	// Register is every query's plan settings (its strategy).
	Register streamworks.RegisterOptions
	// SplitAt, when non-zero, is the index of the first edge of the
	// workload's second regime (the drift point of DriftWorkload).
	SplitAt int
}

// NDJSON writes the workload's edge stream in the JSON Lines wire format
// shared by the loader and the HTTP ingest endpoint (POST /v1/edges): one
// edge object per line, attribute kinds preserved. The load driver, server
// tests and curl-based ingestion all serialize edges through this single
// encoder so there is exactly one wire format.
func (w Workload) NDJSON(out io.Writer) error { return loader.WriteJSONL(out, w.Edges) }

// NetFlowWorkload builds the internet-traffic evaluation workload: the
// background stream of cfg with smurf, worm and exfiltration attacks woven
// in, queried by the paper's Fig. 3 suite at the given window. The attack
// streams are combined with the background on the k-way merge fan-in path.
func NetFlowWorkload(cfg NetFlowConfig, window time.Duration) Workload {
	flow := NewNetFlow(cfg, nil)
	bg := flow.Generate()
	start := cfg.Start
	end := start
	if len(bg) > 0 {
		end = bg[len(bg)-1].Edge.Timestamp
	}
	inj := NewInjector(DefaultInjectorConfig(), flow.Hosts(), flow.Sequence())
	smurf, _ := inj.Inject(AttackSmurf, 3, start, end)
	worm, _ := inj.Inject(AttackWorm, 3, start, end)
	exfil, _ := inj.Inject(AttackExfiltration, 3, start, end)
	return Workload{
		Name:  "netflow",
		Edges: stream.Merge(bg, smurf, worm, exfil),
		Queries: []*query.Graph{
			SmurfQuery(window),
			WormQuery(window),
			WormChainQuery(window),
			ExfiltrationQuery(window),
		},
		Engine: core.Config{Retention: window},
	}
}

// NewsWorkload builds the news-stream evaluation workload: the article/
// entity stream of cfg queried by the paper's Fig. 2 co-mention event
// pattern (articles joined through a shared keyword and location — a
// hub-free query, which a sharded engine runs on shard 0 alone).
func NewsWorkload(cfg NewsConfig, window time.Duration, articles int) Workload {
	news := NewNews(cfg, nil)
	edges, _ := news.Generate()
	return Workload{
		Name:    "news",
		Edges:   edges,
		Queries: []*query.Graph{NewsEventQuery(window, articles, "")},
		Engine:  core.Config{Retention: window},
	}
}

// DriftWorkload builds the selectivity-drift evaluation workload: the
// netflow background stream runs the benign DefaultTrafficMix for its first
// half and then rotates to ScanHeavyTrafficMix — reconnaissance and
// infection traffic, rare enough at plan time that the selective planner
// anchors SJ-Trees on them, floods the second half and inverts every
// selectivity ranking. The usual attacks are woven through both halves so
// the Fig. 3 queries have real matches throughout. A plan made at
// registration from the first regime's statistics is kept after the
// rotation, so the workload shows what each strategy's plan costs under a
// mix it was not made for. SplitAt marks the first post-drift edge.
func DriftWorkload(cfg NetFlowConfig, window time.Duration) Workload {
	if len(cfg.Phases) == 0 {
		cfg.Phases = []MixPhase{
			{UpTo: 0.5, Mix: DefaultTrafficMix()},
			{UpTo: 1.0, Mix: ScanHeavyTrafficMix()},
		}
	}
	flow := NewNetFlow(cfg, nil)
	bg := flow.Generate()
	start := cfg.Start
	end := start
	if len(bg) > 0 {
		end = bg[len(bg)-1].Edge.Timestamp
	}
	// The drift instant is the timestamp at which the background leaves its
	// first phase.
	driftTS := end
	if len(cfg.Phases) > 1 {
		if idx := int(cfg.Phases[0].UpTo * float64(len(bg))); idx >= 0 && idx < len(bg) {
			driftTS = bg[idx].Edge.Timestamp
		}
	}
	inj := NewInjector(DefaultInjectorConfig(), flow.Hosts(), flow.Sequence())
	smurf, _ := inj.Inject(AttackSmurf, 3, start, end)
	worm, _ := inj.Inject(AttackWorm, 3, start, end)
	exfil, _ := inj.Inject(AttackExfiltration, 3, start, end)
	edges := stream.Merge(bg, smurf, worm, exfil)
	split := len(edges)
	for i, se := range edges {
		if se.Edge.Timestamp >= driftTS {
			split = i
			break
		}
	}
	return Workload{
		Name:  "drift",
		Edges: edges,
		Queries: []*query.Graph{
			SmurfQuery(window),
			WormQuery(window),
			WormChainQuery(window),
			ExfiltrationQuery(window),
			ReconBurstQuery(window),
		},
		Engine:  core.Config{Retention: window},
		SplitAt: split,
	}
}

// BenchNetFlowWorkload builds the canonical netflow benchmark workload: the
// same shape as internal/shard's BenchmarkSingleEngine (all four Fig. 3
// cyber queries over a skewed background stream with attacks woven in),
// scaled to the requested edge count.
func BenchNetFlowWorkload(edges, hosts int, window time.Duration) Workload {
	cfg := NetFlowConfig{
		Hosts:       hosts,
		Servers:     hosts/16 + 4,
		Edges:       edges,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        41,
	}
	return NetFlowWorkload(cfg, window)
}

// BenchDriftWorkload builds the canonical selectivity-drift benchmark
// workload: the netflow query suite over a background stream whose traffic
// mix rotates from benign to scan-heavy halfway through, scaled to the
// requested edge count.
func BenchDriftWorkload(edges, hosts int, window time.Duration) Workload {
	// Stretch the stream to ~5 query windows so the retention window fully
	// rotates into the post-drift regime: drift detection reads selectivities
	// from the retained window, which must outlive the old mix for the new
	// one to dominate it.
	gap := 5 * window / time.Duration(max(edges, 1))
	if gap <= 0 {
		gap = time.Millisecond
	}
	cfg := NetFlowConfig{
		Hosts:       hosts,
		Servers:     hosts/16 + 4,
		Edges:       edges,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     gap,
		ContactSkew: 1.4,
		Seed:        43,
	}
	return DriftWorkload(cfg, window)
}

// BenchNewsWorkload builds the canonical news benchmark workload: the Fig. 2
// co-mention event query over an article/entity stream, scaled to roughly
// the requested edge count (articles emit several edges each).
func BenchNewsWorkload(edges int, window time.Duration) Workload {
	cfg := DefaultNewsConfig()
	cfg.Articles = edges / 8
	if cfg.Articles < 50 {
		cfg.Articles = 50
	}
	cfg.Keywords = cfg.Articles/4 + 50
	cfg.Locations = cfg.Articles/40 + 10
	cfg.EventClusters = cfg.Articles / 100
	return NewsWorkload(cfg, window, 2)
}

// MatchSet is the order-insensitive identity set of a run's complete
// matches: one canonical key (query name plus sorted edge binding) per
// deduplicated match. Two runs over the same workload are equivalent exactly
// when their MatchSets are equal.
type MatchSet map[string]struct{}

// Add records an event's canonical key and reports whether it is new.
func (s MatchSet) Add(ev core.MatchEvent) bool {
	return s.AddKey(ev.Query, ev.CanonicalSignature())
}

// AddKey records a match identified by (query, signature) — the form a
// remote consumer sees in an export.MatchReport — under the same canonical
// key Add derives from an engine event, so HTTP-delivered match streams can
// be compared against in-process runs. It reports whether the key is new:
// a run that sends a query one binding twice breaks exactly-once delivery.
func (s MatchSet) AddKey(query, signature string) bool {
	k := query + "\x1f" + signature
	if _, dup := s[k]; dup {
		return false
	}
	s[k] = struct{}{}
	return true
}

// Equal reports set equality.
func (s MatchSet) Equal(o MatchSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// Oracle returns the workload's match set by the paper's definition,
// computed without the engine: baseline.NaiveExpand expands every query's
// whole pattern around each arriving edge, with no decomposition and no
// stored partial matches, and keeps the matches whose span fits the query's
// window. A query without a window has the engine's effective retention as
// its window (the retention widened to the widest query window), unbounded
// only when the retention is. Under a bounded retention the oracle retains
// twice the effective retention, so a match's first edge is still there
// when its last arrives. It is the reference equivalence tests hold every
// engine configuration to.
func Oracle(w Workload) MatchSet {
	var retention time.Duration
	if w.Engine.Retention > 0 {
		retention = w.Engine.Retention
		for _, q := range w.Queries {
			retention = max(retention, q.Window())
		}
	}
	ne := baseline.NewNaiveExpand(2*retention, w.Engine.Slack)
	for _, q := range w.Queries {
		_ = ne.RegisterQuery(q) // refuses only a nil query
	}
	set := make(MatchSet)
	for _, se := range w.Edges {
		for _, ev := range ne.ProcessEdge(se) {
			// A windowed query's matches already fit its window, which the
			// retention is never narrower than.
			if ev.Match.WithinWindow(retention) {
				set.Add(ev)
			}
		}
	}
	return set
}

// RunEngine replays the workload through an in-process public
// streamworks.Engine (New or NewSharded): it registers the workload's
// queries with its plan settings, subscribes to every match, streams the edges and closes the
// engine, returning the canonical match set, or an error when a match was
// sent to its query twice. Its drain protocol — Close,
// then wait for the subscription's Done — relies on Close being the drain,
// which holds for the in-process backends only; a Remote tears its streams
// down abortively on Close, so remote runs must instead drain the daemon
// (server Close) and wait for Done before closing the engine, as the
// cross-backend acceptance test does. The engine is always closed on
// return.
func RunEngine(eng streamworks.Engine, w Workload) (MatchSet, error) {
	return runEngine(eng, w, nil)
}

// RunReregistering is RunEngine with two changes of plan mid-stream: at
// half and at five sixths of the stream it unregisters each query and
// registers it again under the next strategy of streamworks.PlanStrategies
// after the one it ran. A sharded engine refuses a hub-free query once edges
// have streamed (by design: shard 0 lacks its history), so there only the
// queries with a hub vertex move.
func RunReregistering(eng streamworks.Engine, w Workload) (MatchSet, error) {
	return runEngine(eng, w, []int{len(w.Edges) / 2, len(w.Edges) * 5 / 6})
}

// runEngine is RunEngine re-registering the queries at each edge index of
// moves, in increasing order.
func runEngine(eng streamworks.Engine, w Workload, moves []int) (MatchSet, error) {
	defer eng.Close()
	ctx := context.Background()
	for _, q := range w.Queries {
		if err := eng.RegisterQueryWith(ctx, q, w.Register); err != nil {
			return nil, err
		}
	}
	// The sink runs on the engine's delivery goroutine; the Done wait below
	// (after Close) orders every AddKey before the return.
	set := make(MatchSet)
	var dup string
	sub, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
		if !set.AddKey(m.Query, m.Signature) && dup == "" {
			dup = m.Query + " " + m.Signature
		}
	}))
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	_, sharded := eng.(*streamworks.Sharded)
	strategies := streamworks.PlanStrategies()
	at := max(slices.Index(strategies, w.Register.Strategy), 0)
	from := 0
	for k, to := range append(moves, len(w.Edges)) {
		if err := eng.ProcessBatch(ctx, w.Edges[from:to]); err != nil {
			return nil, err
		}
		from = to
		if k == len(moves) {
			break
		}
		next := streamworks.RegisterOptions{Strategy: strategies[(at+k+1)%len(strategies)]}
		for _, q := range w.Queries {
			if sharded && !shard.HasHub(q) {
				continue
			}
			if err := eng.UnregisterQuery(ctx, q.Name()); err != nil {
				return nil, err
			}
			if err := eng.RegisterQueryWith(ctx, q, next); err != nil {
				return nil, err
			}
		}
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	<-sub.Done()
	if dup != "" {
		return nil, fmt.Errorf("gen: %s: %s sent twice", w.Name, dup)
	}
	return set, nil
}

// RunSingle replays the workload through the public single-engine backend
// (streamworks.New) and returns the canonical match set and final metrics.
// Extra options (e.g. streamworks.WithObservability) are applied after the
// workload's engine config.
func RunSingle(w Workload, extra ...streamworks.Option) (MatchSet, core.Metrics, error) {
	opts := append([]streamworks.Option{streamworks.WithEngineConfig(w.Engine)}, extra...)
	eng := streamworks.New(opts...)
	set, err := RunEngine(eng, w)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	m, err := eng.Metrics(context.Background())
	if err != nil {
		return nil, core.Metrics{}, err
	}
	return set, m, nil
}

// RunSharded replays the workload through the public sharded backend
// (streamworks.NewSharded) with the given shard count and returns the
// deduplicated canonical match set and the aggregated metrics. Extra
// options are applied after the workload's engine config and shard count.
func RunSharded(w Workload, shards int, extra ...streamworks.Option) (MatchSet, core.Metrics, error) {
	opts := append([]streamworks.Option{
		streamworks.WithEngineConfig(w.Engine),
		streamworks.WithShards(shards),
	}, extra...)
	eng := streamworks.NewSharded(opts...)
	set, err := RunEngine(eng, w)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	m, err := eng.Metrics(context.Background())
	if err != nil {
		return nil, core.Metrics{}, err
	}
	return set, m, nil
}
