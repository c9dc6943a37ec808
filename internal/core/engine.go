// Package core implements the StreamWorks continuous query engine: the
// component that ties the dynamic graph, the summarization layer, the query
// planner and the SJ-Tree join machinery together (paper §4).
//
// Users register graph queries; each query's decomposition plan — the
// paper's SJ-Tree, a left-deep plan in the sense of arXiv 1407.3745 — is
// folded into one evaluation DAG shared by every registration
// (internal/mqo), in which a single query is simply a DAG where nothing
// happens to be shared. The query's attachment to the DAG is the engine's
// one record of a registration: its name, query graph and plan, in
// registration order; the engine adds only the emitter the DAG calls with
// each complete match, a closure holding the query's match counter. The
// engine then consumes a stream of timestamped edges and, for every arriving
// edge, runs one local search per distinct leaf primitive the edge can
// participate in, joins the resulting primitive matches up the DAG and
// reports every complete match that emerges within each query's time window.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stats"
)

// MatchEvent is one complete match reported by the engine. The queries of
// one consumer group (internal/mqo) receive the very same *match.Match and
// Signature string for a data subgraph they all match: both are immutable
// from emission on, and sinks must treat them so.
type MatchEvent struct {
	// Query is the name of the registered query that matched.
	Query string
	// Match is the complete binding of the query graph in the data graph.
	Match *match.Match
	// Signature is Match.Signature() when the emitter has already built it
	// (the DAG builds it once per consumer group), empty otherwise; read it
	// through CanonicalSignature.
	Signature string
	// DetectedAt is the stream watermark at the moment of detection; the
	// detection latency of an event is DetectedAt minus the event's last
	// edge timestamp (zero for in-order streams).
	DetectedAt graph.Timestamp
	// EmittedWallNS is the wall-clock nanosecond timestamp of emission,
	// stamped through the obs.Clock seam only when observability is enabled
	// (zero otherwise). Serving tiers subtract it from their own clock to
	// measure dispatch latency; it never influences matching.
	EmittedWallNS int64
	// ArrivedWallNS is the serving-tier arrival time of the edge whose
	// processing completed this match, copied from the StreamEdge envelope
	// when observability is enabled (zero otherwise, and zero for edges that
	// never crossed a serving tier). The flush point subtracts it to record
	// the match's full arrival-to-delivery journey.
	ArrivedWallNS int64
}

// CanonicalSignature returns the match's canonical signature, reusing the
// one the emitter built when there is one.
func (e MatchEvent) CanonicalSignature() string {
	if e.Signature != "" {
		return e.Signature
	}
	return e.Match.Signature()
}

// String renders the event compactly.
func (e MatchEvent) String() string {
	return fmt.Sprintf("[%s] %s (detected at %d)", e.Query, e.Match, e.DetectedAt)
}

// MatchSink receives complete matches at the moment of emission, the push
// half of the engine API: a front-end sets its sink once and the engine
// drives it, instead of every caller polling ProcessEdge's scratch-backed
// return slice. OnMatch is invoked synchronously on the goroutine driving
// the engine, so implementations must be fast and must not call back into
// the engine. The MatchEvent value is safe to retain.
type MatchSink interface {
	OnMatch(MatchEvent)
}

// MatchSinkFunc adapts a plain function to the MatchSink interface.
type MatchSinkFunc func(MatchEvent)

// OnMatch implements MatchSink.
func (f MatchSinkFunc) OnMatch(ev MatchEvent) { f(ev) }

// Config controls engine-wide behaviour.
type Config struct {
	// Retention is the width of the dynamic graph's sliding window. Zero
	// retains every edge; registrations with time windows extend it
	// automatically so no query can miss a match because data expired early.
	// It is also the window of every query registered without one.
	Retention time.Duration
	// Slack is the out-of-order slack; graph.Clock states which edges it
	// lets in and which it drops as late.
	Slack time.Duration
	// EnableSummaries is ignored: the statistics the selective planner reads
	// cost nothing per edge, so they are always on. The field is kept only
	// because benchmark/ still sets it.
	EnableSummaries bool
	// TriadSampling is ignored: triad counts are exact, read from the window
	// graph. The field is kept only because benchmark/ still sets it.
	TriadSampling int
	// PruneInterval is the number of processed edges between partial-match
	// pruning sweeps. Zero uses the default of 1024.
	PruneInterval int
	// Obs holds the registry the engine keeps its counts in (a fresh one
	// when nil) and configures what reads the clock or samples: per-segment
	// latency histograms, the stream-time detection-lag histogram and sampled
	// edge tracing. Those are disabled by default; when enabled the engine
	// reads wall time exclusively through the configured obs.Clock (never a
	// concrete clock — obs.TestHotPathReadsNoWallClock holds the seam).
	Obs obs.Config
	// SharedPlans is ignored: every engine folds its queries into the one
	// shared evaluation DAG. The field stays only because the benchmark
	// harness under benchmark/ still sets it.
	SharedPlans bool
}

// Engine is the continuous query processor. It is not safe for concurrent
// use; callers stream edges from a single goroutine (shard streams across
// engines for parallelism).
type Engine struct {
	cfg     Config
	dyn     *graph.Dynamic
	summary *stats.Summary
	// planner plans every registration from the summary's statistics of
	// the window as it is now.
	planner *decompose.Planner

	// dag is the evaluation DAG every registration is attached to, and the
	// one record of each: its attachment holds the query's name, graph and
	// plan, in registration order. dagEvents is where a query's emitter
	// appends MatchEvents during a DAG ProcessEdge (the DAG emits through
	// per-attachment callbacks rather than returning slices).
	dag       *mqo.DAG
	dagEvents []MatchEvent

	// evScratch is the per-edge match-event buffer reused across
	// ProcessEdge calls; see the ProcessEdge doc for the aliasing contract.
	evScratch []MatchEvent

	// sink receives the matches of the query named sinkQuery ("" for every
	// query) at the emission point (emitter); nil drops them. Like
	// the rest of the engine it is driver-goroutine state.
	sink      MatchSink
	sinkQuery string

	obs engineObs
}

// New constructs an engine. cfg may be nil, the same as &Config{}.
func New(cfg *Config) *Engine {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if c.PruneInterval <= 0 {
		c.PruneInterval = 1024
	}
	c.Obs = c.Obs.Normalized()
	e := &Engine{
		cfg: c,
		dyn: graph.NewDynamic(c.Retention, graph.WithSlack(c.Slack)),
	}
	e.summary = stats.NewSummary()
	e.planner = decompose.NewPlanner(stats.NewEstimator(e.summary))
	e.obs = newEngineObs(c.Obs)
	e.dag = mqo.New(e.dyn, mqo.WithObs(c.Obs))
	return e
}

// Graph exposes the engine's dynamic data graph (read-only use).
func (e *Engine) Graph() *graph.Dynamic { return e.dyn }

// Registrations returns the names of all registered queries in registration
// order.
func (e *Engine) Registrations() []string {
	atts := e.dag.Attachments()
	out := make([]string, len(atts))
	for i, a := range atts {
		out[i] = a.Name()
	}
	return out
}

// Registration returns the named query's attachment to the evaluation DAG
// (read-only use: its plan, stats, display).
func (e *Engine) Registration(name string) (*mqo.Attachment, bool) {
	for _, a := range e.dag.Attachments() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Registration errors.
var (
	// ErrDuplicateQuery is returned when a query with the same name is
	// already registered.
	ErrDuplicateQuery = errors.New("core: query already registered")
	// ErrUnknownQuery is returned by Unregister for unknown names.
	ErrUnknownQuery = errors.New("core: unknown query")
	// ErrNilQuery is returned when RegisterQuery is called with nil.
	ErrNilQuery = errors.New("core: nil query")
	// ErrUnnamedQuery is returned when RegisterQuery is called with a query
	// that has no name: a registration is addressed by its name.
	ErrUnnamedQuery = errors.New("core: query must be named (add a 'query <name>' line)")
	// ErrRetentionTooSmall is returned when a query is registered mid-stream
	// with a time window wider than the retention already in force. Widening
	// retention after edges have been ingested cannot recover the edges that
	// were already expired, so such a registration could silently miss
	// matches; callers must either register wide queries up front or
	// configure a sufficiently large Retention.
	ErrRetentionTooSmall = errors.New("core: retention window too small for query window")
)

// RegisterQuery registers a continuous query under its name, which it must
// have (ErrUnnamedQuery otherwise). The query is decomposed with
// the configured strategy (selective by default, using the statistics of the
// window as it is now) and the plan is attached to the engine's evaluation
// DAG, whose attachment it returns. Matches are reported both from
// ProcessEdge return values and to the sink set with Subscribe.
//
// A query registered mid-stream sees the retained window as if it had been
// registered before it began: plan nodes new to the DAG are backfilled from
// the live edges, so a match is reported when its last edge arrives after
// registration even if some of its edges, or whole primitives, arrived
// before. Matches already complete at registration are recorded and never
// reported.
func (e *Engine) RegisterQuery(q *query.Graph, opts ...RegistrationOption) (*mqo.Attachment, error) {
	if q == nil {
		return nil, ErrNilQuery
	}
	name := q.Name()
	if name == "" {
		return nil, ErrUnnamedQuery
	}
	if _, dup := e.Registration(name); dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateQuery, name)
	}
	cfg := registrationConfig{strategy: decompose.StrategySelective}
	for _, o := range opts {
		o(&cfg)
	}
	plan, err := e.planner.Plan(q, cfg.strategy)
	if err != nil {
		return nil, fmt.Errorf("core: planning %q: %w", name, err)
	}
	if err := e.ExtendRetention(q.Window()); err != nil {
		return nil, fmt.Errorf("registering %q: %w", name, err)
	}
	// The query's series lives as long as its registration:
	// UnregisterQuery forgets it.
	matches := e.obs.registry.Counter("query_matches_detected", obs.QueryLabelKey, name)
	att, err := e.dag.Attach(name, q, plan, mqo.AttachOptions{EmitSigned: e.emitter(name, matches)})
	if err != nil {
		e.obs.registry.Forget(obs.QueryLabelKey, name)
		return nil, fmt.Errorf("registering %q: %w", name, err)
	}
	return att, nil
}

// RegistrationOption configures how a query is registered.
type RegistrationOption func(*registrationConfig)

type registrationConfig struct {
	strategy decompose.Strategy
}

// WithStrategy selects the decomposition strategy for the query (default:
// the paper's selectivity-ordered decomposition).
func WithStrategy(s decompose.Strategy) RegistrationOption {
	return func(c *registrationConfig) { c.strategy = s }
}

// emitter returns the emission point of the query registered as name: the
// DAG invokes it (through the attachment's EmitSigned callback) for every
// complete match of the query, already remapped into the query's own
// pattern space, with the signature its consumer group built. It counts
// the match on the query's series, matches, and feeds the engine's sink,
// the event slice and — when observability is on — the detection-lag
// histogram. Events accumulate on e.dagEvents, which ProcessEdge points at
// its scratch buffer.
func (e *Engine) emitter(name string, matches *obs.Counter) func(*match.Match, string) {
	return func(qm *match.Match, signature string) {
		o := &e.obs
		ev := MatchEvent{
			Query:      name,
			Match:      qm,
			Signature:  signature,
			DetectedAt: e.dyn.Watermark(),
		}
		if o.enabled {
			ev.EmittedWallNS = o.clock.Now()
			ev.ArrivedWallNS = o.curArrival
			if qm.HasSpan() {
				o.detectLag.Observe(int64(ev.DetectedAt - qm.Span.End))
			}
		}
		matches.Inc()
		if e.sink != nil && (e.sinkQuery == "" || e.sinkQuery == name) {
			e.sink.OnMatch(ev)
		}
		e.dagEvents = append(e.dagEvents, ev)
	}
}

// UnregisterQuery removes a registered query and discards its partial state.
func (e *Engine) UnregisterQuery(name string) error {
	if e.dag.Detach(name) != nil { // only a name not attached fails
		return fmt.Errorf("%w: %q", ErrUnknownQuery, name)
	}
	e.obs.registry.Forget(obs.QueryLabelKey, name)
	return nil
}

// ExtendRetention widens the graph's window for a query of window w
// (graph.Clock.Extend), as registering the query does, and fails with
// ErrRetentionTooSmall once an edge has been admitted rather than risk
// missed matches. Window-less queries, whose window is the retention, widen
// with it. A sharded front-end calls it on the shards a query does not live
// on, so every shard keeps the same window.
func (e *Engine) ExtendRetention(w time.Duration) error {
	if !e.dyn.Extend(w) {
		return fmt.Errorf("%w: query window %s exceeds retention %s after %d edges",
			ErrRetentionTooSmall, w, e.dyn.Window(), e.dyn.AddedTotal())
	}
	return nil
}

// Subscribe sets the engine's one sink: it receives every complete match of
// the query named by queryFilter ("" for every query) as it is emitted,
// before ProcessEdge returns it, in place of any sink set before (nil sets
// none). The filter may name a query that is not registered yet. Call it
// from the goroutine driving the engine.
func (e *Engine) Subscribe(queryFilter string, sink MatchSink) {
	e.sink, e.sinkQuery = sink, queryFilter
}

// ProcessEdge ingests one stream edge and returns the complete matches it
// produced across all registered queries. A late edge (graph.Clock) and a
// duplicate edge ID are counted and skipped rather than aborting the stream.
//
// The returned slice aliases an internal scratch buffer and is only valid
// until the next ProcessEdge call; callers that retain events across calls
// must copy the slice (the MatchEvent values themselves are safe to keep).
func (e *Engine) ProcessEdge(se graph.StreamEdge) []MatchEvent {
	var t0 int64
	if e.obs.enabled {
		t0 = e.obs.clock.Now()
	}
	stored, err := e.dyn.Apply(se)
	if err != nil {
		e.obs.edgesDropped.Inc()
		return nil
	}
	e.obs.edgesProcessed.Inc()
	e.summary.Observe(se, e.dyn.Graph())
	if e.obs.enabled {
		e.obs.windowApply.Observe(e.obs.clock.Now() - t0)
		e.obs.curArrival = se.ArrivedWallNS
	}

	// One DAG pass covers every registration; emissions arrive through
	// each query's emitter, which appends to e.dagEvents (pointed at the
	// scratch slice for this call). The previous call's events are cleared
	// first: a stale event would pin its match, and the slab chunks the
	// match and its signature were carved from, until overwritten.
	clear(e.evScratch)
	e.dagEvents = e.evScratch[:0]
	e.dag.ProcessEdge(stored)
	events := e.dagEvents
	e.dagEvents = nil
	e.evScratch = events
	if len(events) > 0 {
		e.obs.matchesDetected.Add(uint64(len(events)))
	}

	if e.obs.edgesProcessed.Value()%uint64(e.cfg.PruneInterval) == 0 {
		e.pruneAll()
	}
	return events
}

// Advance signals the passage of stream time to ts in the absence of edges:
// the dynamic graph's watermark moves forward (trailing ts by the configured
// slack, exactly as edge ingestion would), expiring out-of-window edges, and
// partial matches that can no longer complete are pruned. Sharded front-ends
// broadcast watermarks through this hook so that idle shards keep expiring
// and pruning at the same pace as the shards receiving edges.
func (e *Engine) Advance(ts graph.Timestamp) {
	before := e.dyn.Watermark()
	e.dyn.AdvanceTo(ts)
	if e.dyn.Watermark() != before {
		e.pruneAll()
	}
}

// pruneAll removes partial matches that can no longer complete: those whose
// span start has aged past their query's window, the retention for a
// window-less query. That covers every match referencing an expired edge,
// since retention is never narrower than the widest window.
func (e *Engine) pruneAll() {
	e.obs.pruneRuns.Inc()
	e.obs.partialsPruned.Add(uint64(e.dag.Prune(e.dyn.Watermark(), nil)))
	e.refreshGauges()
}

// refreshGauges sets the engine's size gauges from what they measure: the
// window graph and the DAG's stored partials. The prune sweep calls it, and
// Snapshot again just before it reads the registry.
func (e *Engine) refreshGauges() {
	o := &e.obs
	o.liveEdges.Set(int64(e.dyn.NumEdges()))
	o.liveVertices.Set(int64(e.dyn.NumVertices()))
	o.expiredEdges.Set(int64(e.dyn.ExpiredTotal()))
	o.partialsStored.Set(int64(e.dag.PartialMatches()))
}

// Metrics returns a snapshot of engine counters, including per-query detail.
func (e *Engine) Metrics() Metrics {
	m, _ := e.Snapshot()
	return m
}

// Snapshot refreshes the engine's gauges, reads its registry once, and
// returns the reading with the Metrics view built from it: every count from
// the reading (FillMetrics), plan detail and the per-query coverage views
// from the registrations and the DAG.
func (e *Engine) Snapshot() (Metrics, obs.Snapshot) {
	e.refreshGauges()
	atts := e.dag.Attachments()
	m := Metrics{Registrations: uint64(len(atts)), MQO: e.dag.Stats()}
	for _, att := range atts {
		plan := att.Plan()
		m.Queries = append(m.Queries, QueryMetrics{
			Name:      att.Name(),
			Strategy:  plan.Strategy,
			PlanNodes: plan.NumNodes(),
			PlanDepth: plan.Depth(),
			// The per-query view of the DAG: LocalSearches reports the
			// query's coverage (a shared leaf's searches count for every
			// query viewing it); the DAG-level totals report actual cost, and
			// the gap between the two is the sharing win.
			PartialMatches: att.PartialMatches(),
			LocalSearches:  att.LeafSearches(),
		})
	}
	snap := e.obs.registry.Snapshot()
	FillMetrics(&m, snap)
	return m, snap
}
