// Package baseline implements the two comparison systems the StreamWorks
// paper positions itself against (§2.2, §3.1):
//
//   - Recompute re-runs a full subgraph-isomorphism search over the current
//     window for every arriving batch of edges (the "repeated search
//     strategy" of Fan et al.), reporting matches it has not reported
//     before. It is correct but its cost grows with the size of the live
//     graph rather than with the size of the update.
//
//   - NaiveExpand is the paper's "simplistic approach": for every arriving
//     edge it immediately tries every combination the edge could participate
//     in by expanding the full query pattern around the edge, with no
//     decomposition and no partial-match memoisation. It is incremental but
//     repeats neighbourhood exploration the SJ-Tree would have remembered.
//
// Both produce core.MatchEvent values so benchmarks can compare them
// directly against the engine.
package baseline

import (
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stream"
)

// Recompute is the repeated-search baseline.
type Recompute struct {
	dyn     *graph.Dynamic
	queries []*recomputeQuery

	edgesProcessed uint64
	searchesRun    uint64
}

type recomputeQuery struct {
	q       *query.Graph
	matcher *isomorphism.Matcher
	seen    map[string]struct{}
}

// NewRecompute constructs the baseline with the given retention window and
// out-of-order slack (mirroring core.Config).
func NewRecompute(retention, slack time.Duration) *Recompute {
	return &Recompute{dyn: graph.NewDynamic(retention, graph.WithSlack(slack))}
}

// RegisterQuery adds a continuous query to the baseline.
func (r *Recompute) RegisterQuery(q *query.Graph) error {
	if q == nil {
		return core.ErrNilQuery
	}
	r.queries = append(r.queries, &recomputeQuery{
		q:       q,
		matcher: isomorphism.New(q),
		seen:    make(map[string]struct{}),
	})
	return nil
}

// Graph exposes the baseline's dynamic graph.
func (r *Recompute) Graph() *graph.Dynamic { return r.dyn }

// EdgesProcessed returns the number of edges admitted.
func (r *Recompute) EdgesProcessed() uint64 { return r.edgesProcessed }

// SearchesRun returns the number of full pattern searches executed.
func (r *Recompute) SearchesRun() uint64 { return r.searchesRun }

// ProcessBatch applies the batch to the dynamic graph and then re-runs the
// full search for every registered query, returning only matches not
// reported in earlier batches and whose span fits the query window.
func (r *Recompute) ProcessBatch(b stream.Batch) []core.MatchEvent {
	for _, se := range b.Edges {
		if _, err := r.dyn.Apply(se); err == nil {
			r.edgesProcessed++
		}
	}
	var events []core.MatchEvent
	for _, rq := range r.queries {
		r.searchesRun++
		for _, m := range rq.matcher.FindAll(r.dyn.Graph(), rq.q.EdgeIDs(), 0) {
			if !m.WithinWindow(rq.q.Window()) {
				continue
			}
			sig := m.Signature()
			if _, dup := rq.seen[sig]; dup {
				continue
			}
			rq.seen[sig] = struct{}{}
			events = append(events, core.MatchEvent{
				Query:      rq.q.Name(),
				Match:      m,
				DetectedAt: r.dyn.Watermark(),
			})
		}
	}
	return events
}

// NaiveExpand is the no-decomposition incremental baseline.
type NaiveExpand struct {
	dyn     *graph.Dynamic
	queries []*naiveQuery

	edgesProcessed uint64
	expansionsRun  uint64
}

type naiveQuery struct {
	q       *query.Graph
	matcher *isomorphism.Matcher
	seen    map[string]struct{}
}

// NewNaiveExpand constructs the baseline with the given retention window and
// out-of-order slack.
func NewNaiveExpand(retention, slack time.Duration) *NaiveExpand {
	return &NaiveExpand{dyn: graph.NewDynamic(retention, graph.WithSlack(slack))}
}

// RegisterQuery adds a continuous query to the baseline.
func (n *NaiveExpand) RegisterQuery(q *query.Graph) error {
	if q == nil {
		return core.ErrNilQuery
	}
	n.queries = append(n.queries, &naiveQuery{
		q:       q,
		matcher: isomorphism.New(q),
		seen:    make(map[string]struct{}),
	})
	return nil
}

// Graph exposes the baseline's dynamic graph.
func (n *NaiveExpand) Graph() *graph.Dynamic { return n.dyn }

// EdgesProcessed returns the number of edges admitted.
func (n *NaiveExpand) EdgesProcessed() uint64 { return n.edgesProcessed }

// ExpansionsRun returns the number of full-pattern local expansions executed.
func (n *NaiveExpand) ExpansionsRun() uint64 { return n.expansionsRun }

// ProcessEdge applies one edge and expands the complete query pattern around
// it for every pattern edge the new edge could match, reporting every
// in-window completion not seen before.
func (n *NaiveExpand) ProcessEdge(se graph.StreamEdge) []core.MatchEvent {
	stored, err := n.dyn.Apply(se)
	if err != nil {
		return nil
	}
	n.edgesProcessed++
	var events []core.MatchEvent
	for _, nq := range n.queries {
		for _, qe := range nq.q.EdgeIDs() {
			if !nq.q.Edge(qe).MatchesEdge(stored) {
				continue
			}
			n.expansionsRun++
			for _, m := range nq.matcher.LocalSearch(n.dyn.Graph(), nq.q.EdgeIDs(), qe, stored) {
				if !m.WithinWindow(nq.q.Window()) {
					continue
				}
				sig := m.Signature()
				if _, dup := nq.seen[sig]; dup {
					continue
				}
				nq.seen[sig] = struct{}{}
				events = append(events, core.MatchEvent{
					Query:      nq.q.Name(),
					Match:      m,
					DetectedAt: n.dyn.Watermark(),
				})
			}
		}
	}
	return events
}
