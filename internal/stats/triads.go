package stats

import "github.com/streamworks/streamworks/internal/graph"

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

// triadTable is the triad distribution of one window state. A wedge at v is
// an unordered pair of incidences at v of two distinct edges, so with d_v(c)
// the number of v's incidences of class c = (edge type, direction), key
// (type of v, a, b) counts d_v(a)·d_v(b) wedges at v, or d_v(a)·(d_v(a)−1)/2
// when a = b, less one per self-loop whose two ends are a and b. fill counts
// the whole table in one pass over the graph; count reuses it until the
// graph's mutation count moves.
type triadTable struct {
	g         *graph.Graph
	mutations uint64
	counts    map[TriadKey]uint64
	classes   []edgeClass // fill's scratch: one vertex's incidence classes
}

// edgeClass tallies one vertex's incidences of one class; loops counts the
// self-loops among the outgoing ones, whose incoming ends are the same edges.
type edgeClass struct {
	typ      string
	out      bool
	n, loops uint64
}

// count returns the wedges with the given signature in g.
func (t *triadTable) count(g *graph.Graph, key TriadKey) uint64 {
	if t.counts == nil || t.g != g || t.mutations != g.Mutations() {
		t.fill(g)
	}
	return t.counts[key]
}

func (t *triadTable) fill(g *graph.Graph) {
	if t.counts == nil {
		t.counts = make(map[TriadKey]uint64)
	}
	clear(t.counts)
	t.g, t.mutations = g, g.Mutations()
	g.Vertices(func(v *graph.Vertex) bool {
		t.classes = t.classes[:0]
		out := g.OutEdges(v.ID)
		for e, ok := out.Next(); ok; e, ok = out.Next() {
			c := t.class(e.Type, true)
			c.n++
			if e.Target == v.ID {
				c.loops++
			}
		}
		in := g.InEdges(v.ID)
		for e, ok := in.Next(); ok; e, ok = in.Next() {
			t.class(e.Type, false).n++
		}
		for i, a := range t.classes {
			if a.n > 1 {
				t.counts[canonicalTriad(v.Type, a.typ, a.out, a.typ, a.out)] += a.n * (a.n - 1) / 2
			}
			for _, b := range t.classes[i+1:] {
				n := a.n * b.n
				if a.typ == b.typ {
					n -= a.loops + b.loops
				}
				if n > 0 {
					t.counts[canonicalTriad(v.Type, a.typ, a.out, b.typ, b.out)] += n
				}
			}
		}
		return true
	})
}

// class returns the scratch tally of class (typ, out), adding it if new.
func (t *triadTable) class(typ string, out bool) *edgeClass {
	for i := range t.classes {
		if c := &t.classes[i]; c.typ == typ && c.out == out {
			return c
		}
	}
	t.classes = append(t.classes, edgeClass{typ: typ, out: out})
	return &t.classes[len(t.classes)-1]
}
