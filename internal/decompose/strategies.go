package decompose

import (
	"errors"
	"fmt"
	"sort"

	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stats"
)

// Strategy selects how a query graph is decomposed into an SJ-Tree plan.
type Strategy string

const (
	// StrategySelective is the paper's approach: primitives of up to two
	// edges, ranked by estimated cardinality using the stream summary, with
	// the most selective primitive placed lowest in a left-deep join tree so
	// partial-match assembly only starts once the rare structure appears.
	StrategySelective Strategy = "selective"
	// StrategyLazy uses two-edge primitives in plain query-edge order
	// (frequency blind). It is the ablation of selectivity ordering.
	StrategyLazy Strategy = "lazy"
	// StrategyEager uses single-edge primitives in query-edge order; every
	// matching data edge immediately becomes a stored partial match. It is
	// the paper's "simplistic approach" strawman (§3.1).
	StrategyEager Strategy = "eager"
	// StrategyBalanced recursively bisects the query into connected halves,
	// producing a bushy tree of roughly logarithmic depth.
	StrategyBalanced Strategy = "balanced"
)

// Strategies lists all supported strategies in a stable order, used by the
// plan-comparison experiment and the CLI.
func Strategies() []Strategy {
	return []Strategy{StrategySelective, StrategyLazy, StrategyEager, StrategyBalanced}
}

// Planner builds decomposition plans for query graphs using a stream
// summary for selectivity estimates. A nil estimator is accepted: the
// selective strategy then degrades to structural heuristics (smaller
// primitives with typed, predicated vertices first).
type Planner struct {
	est *stats.Estimator
}

// maxLeafEdges bounds the size of a search primitive; the paper keeps
// primitives small ("small and selective") so local searches stay local.
const maxLeafEdges = 2

// NewPlanner constructs a planner. est may be nil.
func NewPlanner(est *stats.Estimator) *Planner {
	return &Planner{est: est}
}

// ErrUnknownStrategy is returned for unrecognized strategy names.
var ErrUnknownStrategy = errors.New("decompose: unknown strategy")

// Plan decomposes q using the given strategy.
func (p *Planner) Plan(q *query.Graph, s Strategy) (*Plan, error) {
	if q == nil || q.NumEdges() == 0 {
		return nil, fmt.Errorf("decompose: empty query")
	}
	var root *Node
	switch s {
	case StrategySelective:
		root = p.leftDeep(q, primitives(q, q.EdgeIDs(), p.bestPartnerByBenefit), true)
	case StrategyLazy:
		root = p.leftDeep(q, primitives(q, q.EdgeIDs(), p.bestPartner), false)
	case StrategyEager:
		root = p.leftDeep(q, primitives(q, q.EdgeIDs(), nil), false)
	case StrategyBalanced:
		root = p.balanced(q, q.EdgeIDs())
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownStrategy, s)
	}
	plan := &Plan{Query: q, Root: root, Strategy: s}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// primitives greedily partitions edges, in order, into connected primitives
// of at most maxLeafEdges edges: each edge not yet taken is paired with the
// unused edge partner picks, or stays a single-edge primitive when partner
// is nil or picks none. Partners share a vertex with the edge, so two-edge
// primitives are always wedges.
func primitives(q *query.Graph, edges []query.EdgeID, partner func(*query.Graph, query.EdgeID, map[query.EdgeID]bool) (query.EdgeID, bool)) [][]query.EdgeID {
	unused := make(map[query.EdgeID]bool, len(edges))
	for _, e := range edges {
		unused[e] = true
	}
	var prims [][]query.EdgeID
	for _, e := range edges {
		if !unused[e] {
			continue
		}
		prim := []query.EdgeID{e}
		unused[e] = false
		if partner != nil {
			if pe, ok := partner(q, e, unused); ok {
				prim = append(prim, pe)
				unused[pe] = false
			}
		}
		prims = append(prims, prim)
	}
	return prims
}

// bestPartnerByBenefit, the selective strategy's partner, picks the unused
// adjacent edge that most reduces the *total* estimated match volume stored
// at the leaves:
//
//	benefit(e, p) = card({e}) + card({p}) − card({e, p})
//
// i.e. how much cheaper one wedge leaf is than the two singleton leaves it
// replaces. Minimizing the wedge estimate alone (bestPartner) can pair two
// rare edges and strand a flood-frequency edge as its own leaf — every one
// of those edges then becomes a stored partial match; absorbing the
// expensive edge into a wedge gated by a rare one is what keeps the SJ-Tree
// small. Neutral pairings (benefit 0, e.g. under cold statistics where every
// estimate is 1) are still taken — small leaves are preferable when nothing
// distinguishes them — but an actively harmful pairing (negative benefit)
// leaves e a singleton.
func (p *Planner) bestPartnerByBenefit(q *query.Graph, e query.EdgeID, unused map[query.EdgeID]bool) (query.EdgeID, bool) {
	qe := q.Edge(e)
	eCost := p.estimate(q, []query.EdgeID{e})
	best := query.EdgeID(-1)
	bestBenefit := 0.0
	for _, cand := range q.EdgeIDs() {
		if !unused[cand] || cand == e {
			continue
		}
		ce := q.Edge(cand)
		if !sharesVertex(qe, ce) {
			continue
		}
		benefit := eCost + p.estimate(q, []query.EdgeID{cand}) - p.estimate(q, []query.EdgeID{e, cand})
		if best == -1 {
			if benefit >= 0 {
				best, bestBenefit = cand, benefit
			}
			continue
		}
		if benefit > bestBenefit {
			best, bestBenefit = cand, benefit
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

// bestPartner picks the unused edge adjacent to e that minimizes the
// estimated cardinality of the resulting wedge (or simply the first adjacent
// edge when no estimator is available).
func (p *Planner) bestPartner(q *query.Graph, e query.EdgeID, unused map[query.EdgeID]bool) (query.EdgeID, bool) {
	qe := q.Edge(e)
	best := query.EdgeID(-1)
	bestCost := 0.0
	for _, cand := range q.EdgeIDs() {
		if !unused[cand] || cand == e {
			continue
		}
		ce := q.Edge(cand)
		if !sharesVertex(qe, ce) {
			continue
		}
		cost := p.estimate(q, []query.EdgeID{e, cand})
		if best == -1 || cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

func sharesVertex(a, b *query.Edge) bool {
	return a.Source == b.Source || a.Source == b.Target || a.Target == b.Source || a.Target == b.Target
}

// leftDeep builds a left-deep join tree over the primitives. When ranked is
// true the primitives are ordered by ascending estimated cardinality before
// chaining (most selective lowest); either way each newly joined primitive
// must share a pattern vertex with the already-covered subgraph so every
// internal node's subgraph stays connected.
func (p *Planner) leftDeep(q *query.Graph, prims [][]query.EdgeID, ranked bool) *Node {
	if len(prims) == 0 {
		return nil
	}
	order := make([]int, len(prims))
	for i := range order {
		order[i] = i
	}
	if ranked {
		sort.SliceStable(order, func(i, j int) bool {
			return p.estimate(q, prims[order[i]]) < p.estimate(q, prims[order[j]])
		})
	}
	used := make([]bool, len(prims))
	covered := make(map[query.VertexID]struct{})
	// Start with the first primitive in the chosen order.
	cur := newLeaf(prims[order[0]])
	used[order[0]] = true
	markCovered(q, covered, cur.Edges)

	for remaining := len(prims) - 1; remaining > 0; remaining-- {
		next := -1
		for _, idx := range order {
			if used[idx] {
				continue
			}
			if touchesCovered(q, covered, prims[idx]) {
				next = idx
				break
			}
		}
		if next == -1 {
			// The query graph is connected, so some unused primitive must
			// touch the covered region; fall back to the first unused to
			// avoid an infinite loop on pathological inputs.
			for _, idx := range order {
				if !used[idx] {
					next = idx
					break
				}
			}
		}
		leaf := newLeaf(prims[next])
		cur = newJoin(q, cur, leaf)
		used[next] = true
		markCovered(q, covered, leaf.Edges)
	}
	return cur
}

func markCovered(q *query.Graph, covered map[query.VertexID]struct{}, edges []query.EdgeID) {
	for _, v := range q.EndpointsOf(edges) {
		covered[v] = struct{}{}
	}
}

func touchesCovered(q *query.Graph, covered map[query.VertexID]struct{}, edges []query.EdgeID) bool {
	for _, v := range q.EndpointsOf(edges) {
		if _, ok := covered[v]; ok {
			return true
		}
	}
	return false
}

// balanced recursively splits the edge set into two connected halves. When a
// connected split cannot be found the subset is handled by the selective
// left-deep construction instead.
func (p *Planner) balanced(q *query.Graph, edges []query.EdgeID) *Node {
	if len(edges) <= maxLeafEdges && q.SubsetConnected(edges) {
		return newLeaf(edges)
	}
	left, right, ok := p.connectedSplit(q, edges)
	if !ok {
		return p.leftDeep(q, primitives(q, edges, p.bestPartner), true)
	}
	return newJoin(q, p.balanced(q, left), p.balanced(q, right))
}

// connectedSplit grows a connected half of roughly half the edges (in
// breadth-first edge order) and checks that the remainder is connected too.
func (p *Planner) connectedSplit(q *query.Graph, edges []query.EdgeID) (left, right []query.EdgeID, ok bool) {
	if len(edges) < 2 {
		return nil, nil, false
	}
	target := len(edges) / 2
	if target == 0 {
		target = 1
	}
	inSet := make(map[query.EdgeID]bool, len(edges))
	for _, e := range edges {
		inSet[e] = true
	}
	// Grow from the first edge.
	grown := []query.EdgeID{edges[0]}
	taken := map[query.EdgeID]bool{edges[0]: true}
	covered := make(map[query.VertexID]struct{})
	markCovered(q, covered, grown)
	for len(grown) < target {
		progressed := false
		for _, e := range edges {
			if taken[e] || !inSet[e] {
				continue
			}
			if touchesCovered(q, covered, []query.EdgeID{e}) {
				grown = append(grown, e)
				taken[e] = true
				markCovered(q, covered, []query.EdgeID{e})
				progressed = true
				break
			}
		}
		if !progressed {
			break
		}
	}
	var rest []query.EdgeID
	for _, e := range edges {
		if !taken[e] {
			rest = append(rest, e)
		}
	}
	if len(grown) == 0 || len(rest) == 0 {
		return nil, nil, false
	}
	if !q.SubsetConnected(grown) || !q.SubsetConnected(rest) {
		return nil, nil, false
	}
	return grown, rest, true
}

// estimate returns the estimated cardinality of the subgraph, falling back
// to a structural heuristic (edge count, discounted per predicate and typed
// endpoint) when no estimator is available.
func (p *Planner) estimate(q *query.Graph, edges []query.EdgeID) float64 {
	if p.est != nil {
		return p.est.SubgraphCardinality(q, edges)
	}
	cost := 0.0
	for _, eid := range edges {
		e := q.Edge(eid)
		c := 1000.0
		if e.Type != "" {
			c /= 4
		}
		c *= structuralDiscount(len(e.Preds))
		for _, vid := range []query.VertexID{e.Source, e.Target} {
			v := q.Vertex(vid)
			if v.Type != "" {
				c *= 0.5
			}
			c *= structuralDiscount(len(v.Preds))
		}
		cost += c
	}
	return cost
}

func structuralDiscount(preds int) float64 {
	f := 1.0
	for i := 0; i < preds; i++ {
		f *= stats.DefaultPredicateSelectivity
	}
	return f
}
