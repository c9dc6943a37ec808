package stats

import (
	"github.com/streamworks/streamworks/internal/query"
)

// DefaultPredicateSelectivity is the fraction of candidates assumed to
// survive one attribute predicate when no finer statistics are available.
// The classic System-R style constant (1/4) works well here because the
// planner only needs a *ranking* of primitives, not absolute cardinalities.
const DefaultPredicateSelectivity = 0.25

// Estimator derives cardinality and selectivity estimates for query
// subgraphs from a Summary. The query planner uses it to pick the most
// selective search primitives and to order joins so that rare substructures
// sit lowest in the SJ-Tree (paper §4.1).
type Estimator struct {
	src *Summary
	// predSel overrides DefaultPredicateSelectivity when > 0.
	predSel float64
}

// NewEstimator builds an estimator over the given summary. A nil summary
// yields an estimator with no statistics (every estimate is 1).
func NewEstimator(s *Summary) *Estimator {
	return &Estimator{src: s, predSel: DefaultPredicateSelectivity}
}

// SetPredicateSelectivity overrides the per-predicate selectivity constant.
func (e *Estimator) SetPredicateSelectivity(v float64) {
	if v > 0 && v <= 1 {
		e.predSel = v
	}
}

// VertexCardinality estimates how many data vertices can match the pattern
// vertex: the count of its type (or all vertices when untyped), discounted
// by predicate selectivity.
func (e *Estimator) VertexCardinality(qv *query.Vertex) float64 {
	if e.src == nil || qv == nil {
		return 1
	}
	var base float64
	if qv.Type == "" {
		base = float64(e.src.TotalVertices())
	} else {
		base = float64(e.src.VertexTypeCount(qv.Type))
	}
	if base < 1 {
		base = 1
	}
	return base * e.predicateFactor(len(qv.Preds))
}

// EdgeCardinality estimates how many data edges can match the pattern edge:
// the count of its relation type (or all edges when untyped), discounted by
// predicate selectivity. Undirected pattern edges double the candidates.
func (e *Estimator) EdgeCardinality(qe *query.Edge) float64 {
	if e.src == nil || qe == nil {
		return 1
	}
	var base float64
	if qe.Type == "" {
		base = float64(e.src.TotalEdges())
	} else {
		base = float64(e.src.EdgeTypeCount(qe.Type))
	}
	if base < 1 {
		base = 1
	}
	if qe.AnyDirection {
		base *= 2
	}
	return base * e.predicateFactor(len(qe.Preds))
}

// SubgraphCardinality estimates the number of matches of the query subgraph
// induced by the given pattern edges. The estimate is the independent-join
// formula
//
//	Π_e card(e)  /  Π_v card(v)^(deg_sub(v)-1)
//
// i.e. the product of per-edge candidate counts divided, for every pattern
// vertex shared by k > 1 of the edges, by the vertex's own candidate count
// k-1 times (each additional incidence is a join on that vertex).
//
// For two-edge wedges the estimator prefers the observed multi-relational
// triad frequency when the triad table has seen the combination, which is
// exactly the statistic §4.3 of the paper collects for this purpose.
func (e *Estimator) SubgraphCardinality(q *query.Graph, edges []query.EdgeID) float64 {
	if e.src == nil || q == nil || len(edges) == 0 {
		return 1
	}
	if len(edges) == 2 {
		if est, ok := e.wedgeFromTriads(q, edges); ok {
			return est
		}
	}
	est := 1.0
	for _, eid := range edges {
		est *= e.EdgeCardinality(q.Edge(eid))
	}
	// Count incidences of each vertex within the subset.
	incidence := make(map[query.VertexID]int)
	for _, eid := range edges {
		qe := q.Edge(eid)
		incidence[qe.Source]++
		if qe.Target != qe.Source {
			incidence[qe.Target]++
		}
	}
	for v, k := range incidence {
		if k <= 1 {
			continue
		}
		card := e.VertexCardinality(q.Vertex(v))
		if card < 1 {
			card = 1
		}
		for i := 1; i < k; i++ {
			est /= card
		}
	}
	if est < 0 {
		est = 0
	}
	return est
}

// wedgeFromTriads estimates a two-edge wedge from the triad table. It
// returns ok=false when the two edges do not share exactly one vertex or the
// triad table has no observation for the combination. An undirected leg
// matches data edges of either orientation, so its wedges are summed over
// both, as EdgeCardinality doubles an undirected edge.
func (e *Estimator) wedgeFromTriads(q *query.Graph, edges []query.EdgeID) (float64, bool) {
	a, b := q.Edge(edges[0]), q.Edge(edges[1])
	if a == nil || b == nil {
		return 0, false
	}
	center, ok := sharedVertex(a, b)
	if !ok {
		return 0, false
	}
	cv := q.Vertex(center)
	if cv == nil || cv.Type == "" {
		return 0, false
	}
	var count uint64
	for i := range orientations(a) {
		for j := range orientations(b) {
			outA, outB := (a.Source == center) != (i == 1), (b.Source == center) != (j == 1)
			count += e.src.TriadFrequency(canonicalTriad(cv.Type, a.Type, outA, b.Type, outB))
		}
	}
	if count == 0 {
		return 0, false
	}
	return float64(count) * e.predicateFactor(len(a.Preds)+len(b.Preds)+len(cv.Preds)), true
}

// orientations is how many orientations of a data edge qe matches: its
// declared one, and the reverse too when it is undirected.
func orientations(qe *query.Edge) int {
	if qe.AnyDirection {
		return 2
	}
	return 1
}

// sharedVertex returns the single pattern vertex shared by a and b.
func sharedVertex(a, b *query.Edge) (query.VertexID, bool) {
	src := a.Source == b.Source || a.Source == b.Target
	dst := a.Target == b.Source || a.Target == b.Target
	switch {
	case src && !dst:
		return a.Source, true
	case dst && !src:
		return a.Target, true
	}
	return 0, false
}

// Selectivity returns the estimated fraction of all edges that participate
// in a match of the subgraph: lower is more selective. It is the quantity
// the decomposer minimizes when choosing which primitive to anchor the
// SJ-Tree's lowest level on.
func (e *Estimator) Selectivity(q *query.Graph, edges []query.EdgeID) float64 {
	if e.src == nil {
		return 1
	}
	total := float64(e.src.TotalEdges())
	if total < 1 {
		return 1
	}
	return e.SubgraphCardinality(q, edges) / total
}

func (e *Estimator) predicateFactor(n int) float64 {
	f := 1.0
	for i := 0; i < n; i++ {
		f *= e.predSel
	}
	return f
}
