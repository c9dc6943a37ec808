package core

import (
	"fmt"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/replan"
	"github.com/streamworks/streamworks/internal/sjtree"
)

// RegistrationOption configures how a query is registered.
type RegistrationOption func(*registrationConfig)

type registrationConfig struct {
	strategy decompose.Strategy
	plan     *decompose.Plan
	adaptive bool
}

// WithStrategy selects the decomposition strategy for the query (default:
// the paper's selectivity-ordered decomposition).
func WithStrategy(s decompose.Strategy) RegistrationOption {
	return func(c *registrationConfig) { c.strategy = s }
}

// WithPlan supplies a pre-built decomposition plan, bypassing the planner.
// Used by the plan-comparison experiments and by callers that persist plans.
func WithPlan(p *decompose.Plan) RegistrationOption {
	return func(c *registrationConfig) { c.plan = p }
}

// WithAdaptive opts the registration into adaptive re-planning: the engine
// periodically re-costs the running decomposition against the live stream
// statistics (Config.Replan tunes the cadence and hysteresis) and hot-swaps
// the SJ-Tree when the frozen plan has drifted far enough from what current
// selectivities would produce. The swap preserves the match stream exactly:
// state is rebuilt from the retained window and emissions are deduplicated
// across the boundary. Requires Config.EnableSummaries; without statistics
// the drift check never fires.
func WithAdaptive(enabled bool) RegistrationOption {
	return func(c *registrationConfig) { c.adaptive = enabled }
}

// leafCandidate identifies one (leaf node, pattern edge) pair whose local
// search an arriving data edge may seed, together with the precomputed
// connected ordering of the leaf's pattern edges starting at that seed —
// orders depend only on the pattern, so computing them per arriving edge
// would be pure hot-path waste.
type leafCandidate struct {
	leaf  *sjtree.Node
	qe    query.EdgeID
	order []query.EdgeID
}

// Registration is the runtime state of one registered continuous query.
type Registration struct {
	engine  *Engine
	name    string
	query   *query.Graph
	plan    *decompose.Plan
	tree    *sjtree.Tree
	matcher *isomorphism.Matcher
	// att is the query's attachment to the shared evaluation DAG; it is
	// non-nil exactly when tree is nil (Config.SharedPlans).
	att *mqo.Attachment

	// candidatesByType indexes leaf pattern edges by their required edge
	// type; the empty key holds wildcard pattern edges that every arriving
	// edge must be tested against.
	candidatesByType map[string][]leafCandidate

	matches       uint64
	localSearches uint64

	// Adaptive re-planning state: strategy is what the planner re-runs on a
	// drift check (the strategy the registration was created with, or the
	// supplied plan's), det applies the hysteresis policy, planGen counts
	// plan generations (1 = the registration-time plan) and replans counts
	// completed hot-swaps.
	adaptive bool
	strategy decompose.Strategy
	det      replan.Detector
	planGen  uint64
	replans  uint64

	// nodeEst freezes the planner's per-node cardinality estimates for the
	// running plan, in the tree's pre-order, so per-node metrics can report
	// observed-vs-estimated ratios against the numbers the plan was chosen
	// with. audits is a ring of the most recent drift-check audit records
	// (fires and declines alike); see ReplanAudit.
	nodeEst []float64
	audits  []ReplanAudit

	// prims is the scratch buffer reused by processEdge for the primitive
	// matches of each local search; only the backing array is reused, the
	// matches themselves are owned by the SJ-Tree once inserted.
	prims []*match.Match

	// emittedEntries and emittedBytes are the query's emitted-set gauges,
	// nil (and inert) unless observability is on.
	emittedEntries, emittedBytes *obs.Gauge

	// opts is the option list the registration was created with, retained so
	// front-ends (e.g. the sharded engine) can replicate the registration
	// onto other engines with identical semantics.
	opts []RegistrationOption
}

func newRegistration(e *Engine, name string, q *query.Graph, opts ...RegistrationOption) (*Registration, error) {
	cfg := registrationConfig{strategy: decompose.StrategySelective}
	for _, o := range opts {
		o(&cfg)
	}
	plan := cfg.plan
	if plan == nil {
		var err error
		plan, err = e.planner.Plan(q, cfg.strategy)
		if err != nil {
			return nil, fmt.Errorf("core: planning %q: %w", name, err)
		}
	} else if plan.Query != q {
		return nil, fmt.Errorf("core: supplied plan is for a different query")
	}
	var tree *sjtree.Tree
	if e.dag == nil {
		// Shared-plan engines realize the plan as DAG nodes instead
		// (Engine.RegisterQuery attaches after retention is settled).
		var err error
		tree, err = sjtree.New(plan)
		if err != nil {
			return nil, fmt.Errorf("core: building SJ-Tree for %q: %w", name, err)
		}
	}
	r := &Registration{
		engine:   e,
		name:     name,
		query:    q,
		plan:     plan,
		tree:     tree,
		matcher:  isomorphism.New(q),
		adaptive: cfg.adaptive,
		strategy: plan.Strategy,
		det:      replan.NewDetector(e.replanCfg),
		planGen:  1,
		opts:     opts,
	}
	r.nodeEst = nodeEstimates(e.est, plan)
	if r.tree != nil {
		r.rebuildCandidates()
	}
	r.emittedEntries = e.obs.registry.Gauge(obs.EmittedEntriesGaugeName, obs.QueryLabelKey, name)
	r.emittedBytes = e.obs.registry.Gauge(obs.EmittedBytesGaugeName, obs.QueryLabelKey, name)
	return r, nil
}

// emittedSize returns the entries and resident bytes of the query's
// exactly-once emission set. Under shared plans the set belongs to the
// query's consumer group and is reported on one member (mqo.Attachment.
// EmittedSize), so a sum over queries is what is resident.
func (r *Registration) emittedSize() (entries, bytes int) {
	if r.tree != nil {
		return r.tree.Emitted().Len(), r.tree.Emitted().Bytes()
	}
	return r.att.EmittedSize()
}

// rebuildCandidates (re)derives the per-edge-type index of (leaf, seed
// edge) pairs with their precomputed connected orders from the current
// tree. It runs at registration and again after every plan swap — the new
// tree's leaves are a different partition of the pattern edges.
func (r *Registration) rebuildCandidates() {
	r.candidatesByType = make(map[string][]leafCandidate)
	for _, leaf := range r.tree.Leaves() {
		for _, qe := range leaf.Edges() {
			order := r.matcher.ConnectedOrder(leaf.Edges(), qe)
			if order == nil {
				// Disconnected primitives are rejected by plan validation;
				// skip defensively rather than register a dead candidate.
				continue
			}
			t := r.query.Edge(qe).Type
			r.candidatesByType[t] = append(r.candidatesByType[t], leafCandidate{leaf: leaf, qe: qe, order: order})
		}
	}
}

// Name returns the registration name.
func (r *Registration) Name() string { return r.name }

// Query returns the registered query graph.
func (r *Registration) Query() *query.Graph { return r.query }

// Plan returns the decomposition plan in use.
func (r *Registration) Plan() *decompose.Plan { return r.plan }

// Tree returns the registration's SJ-Tree (read-only use: stats, display).
// It is nil when the engine runs with Config.SharedPlans — the query's state
// then lives in the shared DAG; see Attachment.
func (r *Registration) Tree() *sjtree.Tree { return r.tree }

// Attachment returns the query's shared-DAG attachment, or nil when the
// engine runs per-query SJ-Trees.
func (r *Registration) Attachment() *mqo.Attachment { return r.att }

// Options returns the option list the registration was created with,
// allowing a front-end to clone the registration onto another engine.
func (r *Registration) Options() []RegistrationOption { return r.opts }

// Adaptive reports whether the registration opted into adaptive
// re-planning.
func (r *Registration) Adaptive() bool { return r.adaptive }

// PlanGeneration returns the current plan generation: 1 for the
// registration-time plan, incremented by every hot-swap.
func (r *Registration) PlanGeneration() uint64 { return r.planGen }

// Replans returns how many plan hot-swaps this registration has undergone.
func (r *Registration) Replans() uint64 { return r.replans }

// Matches returns the number of complete matches reported so far.
func (r *Registration) Matches() uint64 { return r.matches }

// nodeMetrics returns live per-SJ-tree-node statistics in plan (pre-order)
// order, pairing each node's observed counters with the cardinality
// estimate the running plan was installed with.
func (r *Registration) nodeMetrics() []NodeMetrics {
	if r.tree == nil {
		return nil
	}
	perNode := r.tree.Stats().PerNodeStored
	out := make([]NodeMetrics, len(perNode))
	for i, ns := range perNode {
		nm := NodeMetrics{
			Edges:        ns.Edges,
			IsLeaf:       ns.IsLeaf,
			Stored:       ns.Stored,
			Inserted:     ns.Inserted,
			Partitions:   ns.Partitions,
			JoinAttempts: ns.JoinAttempts,
			JoinHits:     ns.JoinHits,
			Pruned:       ns.Pruned,
		}
		if i < len(r.nodeEst) {
			nm.EstCardinality = r.nodeEst[i]
			if nm.EstCardinality > 0 {
				nm.ObservedRatio = float64(nm.Inserted) / nm.EstCardinality
			}
		}
		out[i] = nm
	}
	return out
}

// LocalSearches returns the number of primitive local searches executed.
func (r *Registration) LocalSearches() uint64 { return r.localSearches }

// processEdge runs the per-edge incremental step for this query: for every
// leaf pattern edge the new data edge could match, perform a local search of
// the leaf's primitive seeded by the edge and push the resulting primitive
// matches into the SJ-Tree. Match events are appended to events, which is
// returned.
func (r *Registration) processEdge(de *graph.Edge, events []MatchEvent) []MatchEvent {
	events = r.processCandidates(r.candidatesByType[de.Type], de, events)
	if de.Type != "" {
		events = r.processCandidates(r.candidatesByType[""], de, events)
	}
	return events
}

func (r *Registration) processCandidates(cands []leafCandidate, de *graph.Edge, events []MatchEvent) []MatchEvent {
	o := &r.engine.obs
	for i := range cands {
		c := &cands[i]
		if !r.query.Edge(c.qe).MatchesEdge(de) {
			continue
		}
		r.localSearches++
		if o.enabled {
			// Segment timing through the obs.Clock seam: the search and the
			// join+emission halves of the candidate are measured separately
			// so loadgen's breakdown can tell isomorphism cost from
			// hash-join cost.
			t0 := o.clock.Now()
			r.prims = r.matcher.LocalSearchInto(r.prims[:0], r.engine.dyn.Graph(), c.order, de)
			t1 := o.clock.Now()
			o.localSearch.Observe(t1 - t0)
			events = r.insertPrims(c.leaf, de, events)
			o.join.Observe(o.clock.Now() - t1)
		} else {
			r.prims = r.matcher.LocalSearchInto(r.prims[:0], r.engine.dyn.Graph(), c.order, de)
			events = r.insertPrims(c.leaf, de, events)
		}
	}
	return events
}

// emitShared is the shared-DAG emission point, mirroring insertPrims' tail:
// the DAG invokes it (via the attachment's EmitSigned callback) for every
// complete match of this query, already remapped into the query's own
// pattern space and deduplicated, with the signature its consumer group
// built. Events accumulate on engine.dagEvents, which ProcessEdge (and the
// plan-swap replay) points at the appropriate buffer.
func (r *Registration) emitShared(qm *match.Match, signature string) {
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
		if o.tracer.SampleEdge(o.curEdge) {
			o.tracer.Record(obs.TraceEvent{
				Stage:    obs.StageMatch,
				Shard:    o.shard,
				EdgeID:   o.curEdge,
				StreamTS: int64(ev.DetectedAt),
				WallNS:   ev.EmittedWallNS,
				Query:    r.name,
			})
		}
	}
	r.matches++
	e.dispatch(ev)
	e.dagEvents = append(e.dagEvents, ev)
}

// insertPrims pushes the scratch primitive matches into the SJ-Tree and
// emits every complete match that results: engine sinks, event slice,
// and — when observability is on — the detection-lag histogram and a
// sampled match trace event.
func (r *Registration) insertPrims(leaf *sjtree.Node, de *graph.Edge, events []MatchEvent) []MatchEvent {
	o := &r.engine.obs
	for _, pm := range r.prims {
		for _, cm := range r.tree.Insert(leaf, pm) {
			ev := MatchEvent{
				Query:      r.name,
				Match:      cm,
				DetectedAt: r.engine.dyn.Watermark(),
			}
			if o.enabled {
				ev.EmittedWallNS = o.clock.Now()
				ev.ArrivedWallNS = o.curArrival
				if cm.HasSpan() {
					o.detectLag.Observe(int64(ev.DetectedAt - cm.Span.End))
				}
				if o.tracer.SampleEdge(uint64(de.ID)) {
					o.tracer.Record(obs.TraceEvent{
						Stage:    obs.StageMatch,
						Shard:    o.shard,
						EdgeID:   uint64(de.ID),
						StreamTS: int64(ev.DetectedAt),
						WallNS:   ev.EmittedWallNS,
						Query:    r.name,
					})
				}
			}
			r.matches++
			r.engine.dispatch(ev)
			events = append(events, ev)
		}
	}
	return events
}
