// Package isomorphism implements subgraph-isomorphism search over the
// multi-relational property graph.
//
// Two entry points are provided:
//
//   - FindAll performs an offline, exhaustive search of a (sub)pattern in a
//     static graph. The continuous engine uses it for ground truth and the
//     recompute baseline re-runs it for every arriving batch.
//   - LocalSearch is the paper's "local search" primitive (§4.1): given a new
//     data edge that matches one pattern edge of a small search primitive, it
//     enumerates all matches of that primitive containing the new edge, never
//     looking further than the primitive's own radius from the seed edge.
//
// The matcher is a VF2-style backtracking search over a connected ordering
// of the pattern edges: each step binds one pattern edge to a data edge
// incident to the already-matched region, checking vertex/edge type and
// attribute constraints plus injectivity of the vertex binding. Candidate
// bindings are validated in place against the current partial match before
// anything is allocated — the only allocations on the search path are the
// matches that actually extend, so the per-edge hot path stays off the
// garbage collector. The matcher itself is stateless apart from the query
// and can be shared across goroutines that hold read-only access to the
// data graph.
package isomorphism

import (
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
)

// Matcher runs subgraph isomorphism searches for one query graph.
type Matcher struct {
	q *query.Graph
}

// New returns a matcher for the given query graph.
func New(q *query.Graph) *Matcher { return &Matcher{q: q} }

// Query returns the query graph the matcher was built for.
func (m *Matcher) Query() *query.Graph { return m.q }

// FindAll enumerates matches of the pattern edge subset `edges` (use
// q.EdgeIDs() for the whole query) in g. limit bounds the number of matches
// returned; limit <= 0 means unlimited. Matches are complete with respect to
// the edge subset: every listed pattern edge and every endpoint is bound.
func (m *Matcher) FindAll(g *graph.Graph, edges []query.EdgeID, limit int) []*match.Match {
	if len(edges) == 0 || g == nil {
		return nil
	}
	order := m.ConnectedOrder(edges, edges[0])
	if order == nil {
		return nil
	}
	first := m.q.Edge(order[0])
	var results []*match.Match
	g.Edges(func(de *graph.Edge) bool {
		results = m.seedAndExtend(g, first, de, order, results, limit)
		return limit <= 0 || len(results) < limit
	})
	return results
}

// LocalSearch enumerates matches of the pattern edge subset `edges` that
// bind the pattern edge seedQE to the concrete data edge seedDE. It is the
// per-arriving-edge primitive search of the paper: the traversal only visits
// data edges reachable from the seed within the primitive, so its cost is
// bounded by local neighbourhood size, not graph size.
func (m *Matcher) LocalSearch(g *graph.Graph, edges []query.EdgeID, seedQE query.EdgeID, seedDE *graph.Edge) []*match.Match {
	if m.q.Edge(seedQE) == nil || !containsEdge(edges, seedQE) {
		return nil
	}
	order := m.ConnectedOrder(edges, seedQE)
	return m.LocalSearchInto(nil, g, order, seedDE)
}

// LocalSearchInto is LocalSearch with a precomputed connected order (whose
// first entry is the seed pattern edge — see ConnectedOrder) and an
// append-destination, letting per-registration callers hoist the ordering
// computation out of the per-edge path and reuse one result buffer across
// calls. The matches appended to dst are freshly allocated; only the dst
// backing array is reused.
func (m *Matcher) LocalSearchInto(dst []*match.Match, g *graph.Graph, order []query.EdgeID, seedDE *graph.Edge) []*match.Match {
	if g == nil || seedDE == nil || len(order) == 0 {
		return dst
	}
	qe := m.q.Edge(order[0])
	if qe == nil {
		return dst
	}
	return m.seedAndExtend(g, qe, seedDE, order, dst, 0)
}

// seedAndExtend tries both admissible orientations of binding pattern edge
// qe to data edge de as a fresh single-edge match and extends each seed
// through the rest of the order.
func (m *Matcher) seedAndExtend(g *graph.Graph, qe *query.Edge, de *graph.Edge, order []query.EdgeID, acc []*match.Match, limit int) []*match.Match {
	if !qe.MatchesEdge(de) {
		return acc
	}
	if seed := m.trySeed(g, qe, de, false); seed != nil {
		acc = m.extend(g, seed, order, 1, acc, limit)
	}
	if qe.AnyDirection && de.Source != de.Target {
		if limit > 0 && len(acc) >= limit {
			return acc
		}
		if seed := m.trySeed(g, qe, de, true); seed != nil {
			acc = m.extend(g, seed, order, 1, acc, limit)
		}
	}
	return acc
}

// checkEndpoints validates the vertex-level constraints of binding qe to the
// data endpoints (srcID, dstID): endpoint existence, type/attribute
// predicates and self-loop consistency. It allocates nothing.
func (m *Matcher) checkEndpoints(g *graph.Graph, qe *query.Edge, srcID, dstID graph.VertexID) bool {
	// A pattern edge whose endpoints are the same pattern vertex (self
	// loop) requires the data edge to also be a self loop, and vice versa.
	if (qe.Source == qe.Target) != (srcID == dstID) {
		return false
	}
	dsrc, okS := g.Vertex(srcID)
	ddst, okD := g.Vertex(dstID)
	if !okS || !okD {
		return false
	}
	return m.q.Vertex(qe.Source).Matches(dsrc) && m.q.Vertex(qe.Target).Matches(ddst)
}

// trySeed builds the single-edge match binding qe to de in the given
// orientation, or returns nil when the endpoint constraints fail. The
// edge-level constraints (qe.MatchesEdge) are the caller's responsibility.
func (m *Matcher) trySeed(g *graph.Graph, qe *query.Edge, de *graph.Edge, reversed bool) *match.Match {
	srcID, dstID := de.Source, de.Target
	if reversed {
		srcID, dstID = dstID, srcID
	}
	if !m.checkEndpoints(g, qe, srcID, dstID) {
		return nil
	}
	seed := match.NewForQuery(m.q)
	seed.BindVertex(qe.Source, srcID)
	seed.BindVertex(qe.Target, dstID)
	seed.BindEdge(qe.ID, de.ID, de.Timestamp)
	return seed
}

// tryExtend returns a copy of cur extended by binding qe to de in the given
// orientation, or nil when the binding is inconsistent with cur. All checks
// run against cur before the copy is made, so rejected candidates cost no
// allocation.
func (m *Matcher) tryExtend(g *graph.Graph, cur *match.Match, qe *query.Edge, de *graph.Edge, reversed bool) *match.Match {
	srcID, dstID := de.Source, de.Target
	if reversed {
		srcID, dstID = dstID, srcID
	}
	if existing, bound := cur.Edge(qe.ID); bound && existing != de.ID {
		return nil
	}
	if !cur.CanBindVertex(qe.Source, srcID) || !cur.CanBindVertex(qe.Target, dstID) {
		return nil
	}
	if !m.checkEndpoints(g, qe, srcID, dstID) {
		return nil
	}
	next := cur.Clone()
	next.BindVertex(qe.Source, srcID)
	next.BindVertex(qe.Target, dstID)
	next.BindEdge(qe.ID, de.ID, de.Timestamp)
	return next
}

// extend recursively binds order[idx:] given the partial match so far.
func (m *Matcher) extend(g *graph.Graph, cur *match.Match, order []query.EdgeID, idx int, acc []*match.Match, limit int) []*match.Match {
	if limit > 0 && len(acc) >= limit {
		return acc
	}
	if idx == len(order) {
		return append(acc, cur)
	}
	qe := m.q.Edge(order[idx])
	srcBound, haveSrc := cur.Vertex(qe.Source)
	dstBound, haveDst := cur.Vertex(qe.Target)

	consider := func(de *graph.Edge) bool {
		if cur.UsesDataEdge(de.ID) || !qe.MatchesEdge(de) {
			return limit <= 0 || len(acc) < limit
		}
		if next := m.tryExtend(g, cur, qe, de, false); next != nil {
			acc = m.extend(g, next, order, idx+1, acc, limit)
		}
		if qe.AnyDirection && de.Source != de.Target {
			if next := m.tryExtend(g, cur, qe, de, true); next != nil {
				acc = m.extend(g, next, order, idx+1, acc, limit)
			}
		}
		return limit <= 0 || len(acc) < limit
	}

	switch {
	case haveSrc && haveDst:
		// A closing edge: filter the source's list in place, where
		// EdgesBetween would allocate a slice per candidate.
		for _, de := range g.OutEdges(srcBound) {
			if de.Target == dstBound && !consider(de) {
				return acc
			}
		}
		if qe.AnyDirection {
			for _, de := range g.OutEdges(dstBound) {
				if de.Target == srcBound && !consider(de) {
					return acc
				}
			}
		}
	case haveSrc:
		for _, de := range g.OutEdges(srcBound) {
			if !consider(de) {
				return acc
			}
		}
		if qe.AnyDirection {
			for _, de := range g.InEdges(srcBound) {
				if !consider(de) {
					return acc
				}
			}
		}
	case haveDst:
		for _, de := range g.InEdges(dstBound) {
			if !consider(de) {
				return acc
			}
		}
		if qe.AnyDirection {
			for _, de := range g.OutEdges(dstBound) {
				if !consider(de) {
					return acc
				}
			}
		}
	default:
		// Disconnected ordering; should not happen because ConnectedOrder
		// rejects such subsets.
		g.Edges(func(de *graph.Edge) bool {
			return consider(de)
		})
	}
	return acc
}

// ConnectedOrder returns the pattern edges of the subset in an order where
// every edge after the first shares a pattern vertex with an earlier edge,
// starting at `start`. It returns nil when the subset is not connected or
// start is not part of it. Orders depend only on the pattern, so callers on
// the per-edge path precompute them at registration time and reuse them with
// LocalSearchInto.
func (m *Matcher) ConnectedOrder(edges []query.EdgeID, start query.EdgeID) []query.EdgeID {
	if !containsEdge(edges, start) {
		return nil
	}
	remaining := make(map[query.EdgeID]struct{}, len(edges))
	for _, e := range edges {
		remaining[e] = struct{}{}
	}
	covered := make(map[query.VertexID]struct{})
	order := make([]query.EdgeID, 0, len(edges))

	take := func(id query.EdgeID) {
		e := m.q.Edge(id)
		covered[e.Source] = struct{}{}
		covered[e.Target] = struct{}{}
		order = append(order, id)
		delete(remaining, id)
	}
	take(start)
	for len(remaining) > 0 {
		next := query.EdgeID(-1)
		// Scan the caller's slice order so the expansion order (and hence
		// backtracking behaviour) is deterministic across runs.
		for _, id := range edges {
			if _, pending := remaining[id]; !pending {
				continue
			}
			e := m.q.Edge(id)
			_, srcCovered := covered[e.Source]
			_, dstCovered := covered[e.Target]
			if srcCovered || dstCovered {
				next = id
				break
			}
		}
		if next == -1 {
			return nil // disconnected subset
		}
		take(next)
	}
	return order
}

func containsEdge(edges []query.EdgeID, id query.EdgeID) bool {
	for _, e := range edges {
		if e == id {
			return true
		}
	}
	return false
}
