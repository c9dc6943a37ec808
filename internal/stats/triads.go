package stats

import (
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

// TriadKey identifies a multi-relational triad (a two-edge wedge) by the
// type of its centre vertex, the two edge types involved and their
// orientation relative to the centre. It is the unit of the paper's
// "multi-relational triad distribution" (§4.3): triads capture which pairs
// of relations co-occur around a vertex, which is exactly the information
// the planner needs to estimate the selectivity of two-edge primitives.
type TriadKey struct {
	CenterType string
	// EdgeTypeA and EdgeTypeB are the two relation labels, stored in
	// lexicographic order together with their orientations so that the key
	// is canonical regardless of discovery order.
	EdgeTypeA string
	EdgeTypeB string
	// OutA / OutB report whether the respective edge points away from the
	// centre vertex.
	OutA bool
	OutB bool
}

// canonicalTriad builds a canonical TriadKey from the two (type, outgoing)
// legs of a wedge.
func canonicalTriad(centerType, typeA string, outA bool, typeB string, outB bool) TriadKey {
	if typeB < typeA || (typeB == typeA && outB && !outA) {
		typeA, typeB = typeB, typeA
		outA, outB = outB, outA
	}
	return TriadKey{CenterType: centerType, EdgeTypeA: typeA, EdgeTypeB: typeB, OutA: outA, OutB: outB}
}

// triadRing counts wedges and forgets them with the window, by the scheme
// sjtree's emitted sets use: a short ring of generations, each a table of
// counts remembering the newest start among its wedges, where a wedge's
// start is the timestamp of its earlier edge — the wedge is in the window
// exactly while that edge is. Wedges are counted into the newest
// generation; expire seals it once the cutoff has moved
// retention/sealsPerRetention since it opened, and drops a sealed
// generation whole once its newest start is below the cutoff. So no wedge
// still in the window is ever dropped, and the ring holds at most
// 1 + 1/sealsPerRetention retentions of wedges. With unbounded retention
// the cutoff never moves and there is one generation for ever. The zero
// value is an empty ring.
type triadRing struct {
	gens []triadGen // oldest first; the last is open, the others sealed
	// cutoff is the newest expiry bound applied, openedAt what it was when
	// the newest generation opened.
	cutoff, openedAt graph.Timestamp
}

// sealsPerRetention is how many generations are sealed while the cutoff
// crosses one retention (sjtree uses the same eighth).
const sealsPerRetention = 8

type triadGen struct {
	counts   map[TriadKey]uint64
	maxStart graph.Timestamp
}

// observeEdge counts every wedge the new edge e forms with the edges
// incident to its endpoints in g.
func (r *triadRing) observeEdge(g *graph.Graph, e *graph.Edge) {
	if len(r.gens) == 0 {
		r.open()
	}
	gen := &r.gens[len(r.gens)-1]
	gen.observeAround(g, e, e.Source)
	if e.Target != e.Source {
		gen.observeAround(g, e, e.Target)
	}
}

func (gen *triadGen) observeAround(g *graph.Graph, e *graph.Edge, center graph.VertexID) {
	var ct string
	if v, ok := g.Vertex(center); ok {
		ct = v.Type
	}
	newOut := e.Source == center
	// Walk the two incidence lists directly, without building a combined
	// slice per observed edge.
	observe := func(other *graph.Edge) {
		if other.ID == e.ID {
			return
		}
		start := min(e.Timestamp, other.Timestamp)
		if len(gen.counts) == 0 || start > gen.maxStart {
			gen.maxStart = start
		}
		gen.counts[canonicalTriad(ct, e.Type, newOut, other.Type, other.Source == center)]++
	}
	for _, other := range g.OutEdges(center) {
		observe(other)
	}
	for _, other := range g.InEdges(center) {
		observe(other)
	}
}

// count returns the wedges with the given signature across the ring.
func (r *triadRing) count(key TriadKey) uint64 {
	var n uint64
	for _, gen := range r.gens {
		n += gen.counts[key]
	}
	return n
}

// open starts a new generation at the current cutoff.
func (r *triadRing) open() {
	r.gens = append(r.gens, triadGen{counts: make(map[TriadKey]uint64)})
	r.openedAt = r.cutoff
}

// expire applies a new expiry cutoff: sealed generations whose every wedge
// has an edge below it are dropped, and the open one is sealed when the
// cutoff has moved far enough since it opened.
func (r *triadRing) expire(cutoff graph.Timestamp, retention time.Duration) {
	if retention <= 0 || cutoff <= r.cutoff {
		return
	}
	r.cutoff = cutoff
	if len(r.gens) == 0 {
		return
	}
	open := len(r.gens) - 1
	kept := r.gens[:0]
	for i, gen := range r.gens {
		if i == open || gen.maxStart >= cutoff {
			kept = append(kept, gen)
		}
	}
	clear(r.gens[len(kept):])
	r.gens = kept
	if cutoff.Sub(r.openedAt) >= retention/sealsPerRetention {
		if len(r.gens[len(r.gens)-1].counts) > 0 {
			r.open()
		} else {
			r.openedAt = cutoff
		}
	}
}
