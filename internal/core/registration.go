package core

import (
	"fmt"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

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

// Registration is the runtime state of one registered continuous query.
type Registration struct {
	engine *Engine
	name   string
	query  *query.Graph
	plan   *decompose.Plan
	// att is the query's attachment to the engine's evaluation DAG.
	att *mqo.Attachment

	// matches is the query's series in the engine's registry, resolved by
	// bind: the matches it was sent.
	matches *obs.Counter
}

func newRegistration(e *Engine, name string, q *query.Graph, opts ...RegistrationOption) (*Registration, error) {
	cfg := registrationConfig{strategy: decompose.StrategySelective}
	for _, o := range opts {
		o(&cfg)
	}
	plan, err := e.planner.Plan(q, cfg.strategy)
	if err != nil {
		return nil, fmt.Errorf("core: planning %q: %w", name, err)
	}
	return &Registration{engine: e, name: name, query: q, plan: plan}, nil
}

// bind resolves the registration's per-query series once it is attached;
// UnregisterQuery forgets them.
func (r *Registration) bind(reg *obs.Registry) {
	r.matches = reg.Counter("query_matches_detected", obs.QueryLabelKey, r.name)
}

// Name returns the registration name.
func (r *Registration) Name() string { return r.name }

// Query returns the registered query graph.
func (r *Registration) Query() *query.Graph { return r.query }

// Plan returns the decomposition plan in use.
func (r *Registration) Plan() *decompose.Plan { return r.plan }

// Attachment returns the query's attachment to the engine's evaluation DAG
// (read-only use: stats, display).
func (r *Registration) Attachment() *mqo.Attachment { return r.att }

// Matches returns the number of complete matches reported so far.
func (r *Registration) Matches() uint64 { return r.matches.Value() }

// emit is the registration's emission point: the DAG invokes it (via the
// attachment's EmitSigned callback) for every complete match of this query,
// already remapped into the query's own pattern space and deduplicated, with
// the signature its consumer group built. It feeds the engine's sink, the
// event slice and — when observability is on — the detection-lag histogram.
// Events accumulate on engine.dagEvents, which ProcessEdge points at its
// scratch buffer.
func (r *Registration) emit(qm *match.Match, signature string) {
	e := r.engine
	o := &e.obs
	ev := MatchEvent{
		Query:      r.name,
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
	r.matches.Inc()
	if e.sink != nil && (e.sinkQuery == "" || e.sinkQuery == r.name) {
		e.sink.OnMatch(ev)
	}
	e.dagEvents = append(e.dagEvents, ev)
}
