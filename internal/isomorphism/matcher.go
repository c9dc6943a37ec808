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
// attribute constraints plus injectivity of the vertex binding. The search
// binds in place: one caller-owned match is extended by a step and unbound
// again on the way back, so LocalSearchFunc — the engine's per-edge path —
// allocates nothing, and FindAll/LocalSearch/LocalSearchInto pay one copy
// per result. The matcher itself is stateless apart from the query and can
// be shared across goroutines that hold read-only access to the data graph,
// each with its own match to bind into.
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
	cur := match.NewForQuery(m.q)
	var results []*match.Match
	collect := func(found *match.Match) bool {
		results = append(results, found.Clone())
		return limit <= 0 || len(results) < limit
	}
	g.Edges(func(de *graph.Edge) bool {
		m.LocalSearchFunc(g, order, de, cur, collect)
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
// append-destination. Each match appended to dst is a fresh copy; only the
// dst backing array is reused. LocalSearchFunc is the same search without
// the copies.
func (m *Matcher) LocalSearchInto(dst []*match.Match, g *graph.Graph, order []query.EdgeID, seedDE *graph.Edge) []*match.Match {
	m.LocalSearchFunc(g, order, seedDE, match.NewForQuery(m.q), func(found *match.Match) bool {
		dst = append(dst, found.Clone())
		return true
	})
	return dst
}

// LocalSearchFunc runs LocalSearchInto's search binding in place: every match
// is built in cur — an empty match sized for the matcher's query, owned by
// the caller — and handed to yield, which must copy what it keeps, since the
// search unbinds it again as it backtracks. A false return from yield stops
// the search. It allocates nothing, and leaves cur empty.
func (m *Matcher) LocalSearchFunc(g *graph.Graph, order []query.EdgeID, seedDE *graph.Edge, cur *match.Match, yield func(*match.Match) bool) {
	if g == nil || seedDE == nil || len(order) == 0 {
		return
	}
	qe := m.q.Edge(order[0])
	if qe == nil || !qe.MatchesEdge(seedDE) {
		return
	}
	// The seed in both admissible orientations, each extended in turn.
	if m.bindAndExtend(g, cur, qe, seedDE, false, order, 0, yield) && qe.AnyDirection && seedDE.Source != seedDE.Target {
		m.bindAndExtend(g, cur, qe, seedDE, true, order, 0, yield)
	}
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
	return m.q.Vertex(qe.Source).Matches(&dsrc) && m.q.Vertex(qe.Target).Matches(&ddst)
}

// bindAndExtend binds qe (order[idx]) to de in the given orientation when
// that is consistent with cur, extends through order[idx+1:], and unbinds
// again, leaving cur as it found it. All checks run before anything is
// bound. It returns false once yield has.
func (m *Matcher) bindAndExtend(g *graph.Graph, cur *match.Match, qe *query.Edge, de *graph.Edge, reversed bool, order []query.EdgeID, idx int, yield func(*match.Match) bool) bool {
	srcID, dstID := de.Source, de.Target
	if reversed {
		srcID, dstID = dstID, srcID
	}
	if existing, bound := cur.Edge(qe.ID); bound && existing != de.ID {
		return true
	}
	if !cur.CanBindVertex(qe.Source, srcID) || !cur.CanBindVertex(qe.Target, dstID) {
		return true
	}
	if !m.checkEndpoints(g, qe, srcID, dstID) {
		return true
	}
	_, srcWas := cur.Vertex(qe.Source)
	_, dstWas := cur.Vertex(qe.Target)
	span := cur.Span
	cur.BindVertex(qe.Source, srcID)
	cur.BindVertex(qe.Target, dstID)
	cur.BindEdge(qe.ID, de.ID, de.Timestamp)
	more := m.extend(g, cur, order, idx+1, yield)
	cur.UnbindEdge(qe.ID)
	if !dstWas {
		cur.UnbindVertex(qe.Target)
	}
	if !srcWas {
		cur.UnbindVertex(qe.Source)
	}
	cur.Span = span
	return more
}

// extend binds order[idx:] given the partial match so far, handing each
// complete match to yield. It returns false once yield has.
func (m *Matcher) extend(g *graph.Graph, cur *match.Match, order []query.EdgeID, idx int, yield func(*match.Match) bool) bool {
	if idx == len(order) {
		return yield(cur)
	}
	qe := m.q.Edge(order[idx])
	srcBound, haveSrc := cur.Vertex(qe.Source)
	dstBound, haveDst := cur.Vertex(qe.Target)

	consider := func(de *graph.Edge) bool {
		if cur.UsesDataEdge(de.ID) || !qe.MatchesEdge(de) {
			return true
		}
		if !m.bindAndExtend(g, cur, qe, de, false, order, idx, yield) {
			return false
		}
		if qe.AnyDirection && de.Source != de.Target {
			return m.bindAndExtend(g, cur, qe, de, true, order, idx, yield)
		}
		return true
	}

	// scan considers the edges of l; for a closing edge, only those that
	// end at to: the source's list is filtered in place, where
	// EdgesBetween would allocate a slice per candidate. Each edge is a
	// value on the stack.
	scan := func(l graph.EdgeList, to graph.VertexID, closing bool) bool {
		for de, ok := l.Next(); ok; de, ok = l.Next() {
			if (!closing || de.Target == to) && !consider(&de) {
				return false
			}
		}
		return true
	}

	switch {
	case haveSrc && haveDst:
		return scan(g.OutEdges(srcBound), dstBound, true) &&
			(!qe.AnyDirection || scan(g.OutEdges(dstBound), srcBound, true))
	case haveSrc:
		return scan(g.OutEdges(srcBound), 0, false) &&
			(!qe.AnyDirection || scan(g.InEdges(srcBound), 0, false))
	case haveDst:
		return scan(g.InEdges(dstBound), 0, false) &&
			(!qe.AnyDirection || scan(g.OutEdges(dstBound), 0, false))
	default:
		// Disconnected ordering; should not happen because ConnectedOrder
		// rejects such subsets.
		more := true
		g.Edges(func(de *graph.Edge) bool {
			more = consider(de)
			return more
		})
		return more
	}
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
