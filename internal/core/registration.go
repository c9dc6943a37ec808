package core

import (
	"fmt"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/replan"
)

// RegistrationOption configures how a query is registered.
type RegistrationOption func(*registrationConfig)

type registrationConfig struct {
	strategy decompose.Strategy
	adaptive bool
}

// WithStrategy selects the decomposition strategy for the query (default:
// the paper's selectivity-ordered decomposition).
func WithStrategy(s decompose.Strategy) RegistrationOption {
	return func(c *registrationConfig) { c.strategy = s }
}

// WithAdaptive opts the registration into adaptive re-planning: the engine
// periodically re-costs the running decomposition against the live stream
// statistics (Config.Replan tunes the cadence and hysteresis) and hot-swaps
// the plan when the frozen one has drifted far enough from what current
// selectivities would produce. The swap preserves the match stream exactly:
// plan nodes new to the DAG are rebuilt from the retained window, and the
// rebuild sends nothing.
func WithAdaptive(enabled bool) RegistrationOption {
	return func(c *registrationConfig) { c.adaptive = enabled }
}

// Registration is the runtime state of one registered continuous query.
type Registration struct {
	engine *Engine
	name   string
	query  *query.Graph
	plan   *decompose.Plan
	// att is the query's attachment to the engine's evaluation DAG.
	att *mqo.Attachment

	// Adaptive re-planning state: strategy is what the planner re-runs on a
	// drift check (the strategy the registration was created with), det
	// applies the hysteresis policy and planGen counts plan generations (1 =
	// the registration-time plan).
	adaptive bool
	strategy decompose.Strategy
	det      replan.Detector
	planGen  uint64

	// audits is a ring of the most recent drift-check audit records (fires
	// and declines alike); see ReplanAudit.
	audits []ReplanAudit

	// The query's series in the engine's registry, resolved by bind: the
	// matches it was sent and its completed hot-swaps.
	matches, replans *obs.Counter
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
	r := &Registration{
		engine:   e,
		name:     name,
		query:    q,
		plan:     plan,
		adaptive: cfg.adaptive,
		strategy: plan.Strategy,
		det:      replan.NewDetector(e.replanCfg),
		planGen:  1,
	}
	return r, nil
}

// bind resolves the registration's per-query series once it is attached;
// UnregisterQuery forgets them.
func (r *Registration) bind(reg *obs.Registry) {
	r.matches = reg.Counter("query_matches_detected", obs.QueryLabelKey, r.name)
	r.replans = reg.Counter("query_replans", obs.QueryLabelKey, r.name)
}

// Name returns the registration name.
func (r *Registration) Name() string { return r.name }

// Query returns the registered query graph.
func (r *Registration) Query() *query.Graph { return r.query }

// Plan returns the decomposition plan in use.
func (r *Registration) Plan() *decompose.Plan { return r.plan }

// Attachment returns the query's attachment to the engine's evaluation DAG
// (read-only use: stats, display). A plan swap replaces it.
func (r *Registration) Attachment() *mqo.Attachment { return r.att }

// Adaptive reports whether the registration opted into adaptive
// re-planning.
func (r *Registration) Adaptive() bool { return r.adaptive }

// PlanGeneration returns the current plan generation: 1 for the
// registration-time plan, incremented by every hot-swap.
func (r *Registration) PlanGeneration() uint64 { return r.planGen }

// Replans returns how many plan hot-swaps this registration has undergone.
func (r *Registration) Replans() uint64 { return r.replans.Value() }

// Matches returns the number of complete matches reported so far.
func (r *Registration) Matches() uint64 { return r.matches.Value() }

// emit is the registration's emission point: the DAG invokes it (via the
// attachment's EmitSigned callback) for every complete match of this query,
// already remapped into the query's own pattern space and deduplicated, with
// the signature its consumer group built. It feeds the engine sinks, the
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
	e.dispatch(ev)
	e.dagEvents = append(e.dagEvents, ev)
}
