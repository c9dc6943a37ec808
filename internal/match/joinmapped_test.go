package match

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// randomChild builds a match in a child space of cv vertices and ce edges:
// some slots left unbound, data IDs from a space small enough that two
// independent children often agree — or clash — on a vertex or an edge.
func randomChild(rng *rand.Rand, cv, ce int) *Match {
	m := NewSized(cv, ce)
	for qv := 0; qv < cv; qv++ {
		if rng.Intn(4) > 0 {
			m.BindVertex(query.VertexID(qv), graph.VertexID(rng.Intn(6))) // refused when it breaks injectivity
		}
	}
	for qe := 0; qe < ce; qe++ {
		if rng.Intn(5) > 0 {
			m.BindEdge(query.EdgeID(qe), graph.EdgeID(rng.Intn(5)), graph.Timestamp(rng.Intn(1000)))
		}
	}
	return m
}

// randomMap draws an injective map from n child IDs into size parent IDs.
func randomMap[ID ~int](rng *rand.Rand, n, size int) []ID {
	out := make([]ID, n)
	for i, p := range rng.Perm(size)[:n] {
		out[i] = ID(p)
	}
	return out
}

// TestJoinMappedIsRemapRemapJoin is the property the shared DAG's
// store-it-once join rests on: for arbitrary children, bindings and
// injective maps into a common parent space, JoinMapped returns nil exactly
// when joining the two remapped copies does — shared vertices bound apart,
// one data vertex under two parent vertices, a parent edge bound to two data
// edges — and otherwise the very same match: slot for slot, counts, span
// (the union, or the one side's that has one) and edge-set hash. A third of
// the draws read one child through both maps, as a parent whose two links
// share a child does.
func TestJoinMappedIsRemapRemapJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	joined, refused, spanless := 0, 0, 0
	for i := 0; i < 200_000; i++ {
		nv, ne := 3+rng.Intn(4), 2+rng.Intn(4)
		av, ae := 1+rng.Intn(nv), rng.Intn(ne+1)
		a := randomChild(rng, av, ae)
		b, bv, be := a, av, ae
		if rng.Intn(3) > 0 {
			bv, be = 1+rng.Intn(nv), rng.Intn(ne+1)
			b = randomChild(rng, bv, be)
		}
		avm, aem := randomMap[query.VertexID](rng, av, nv), randomMap[query.EdgeID](rng, ae, ne)
		bvm, bem := randomMap[query.VertexID](rng, bv, nv), randomMap[query.EdgeID](rng, be, ne)

		want := a.Remap(nv, ne, avm, aem).Join(b.Remap(nv, ne, bvm, bem))
		got := a.JoinMapped(nv, ne, avm, aem, b, bvm, bem)
		if (got == nil) != (want == nil) {
			t.Fatalf("draw %d: JoinMapped = %v, Remap+Remap+Join = %v\na = %v via %v %v\nb = %v via %v %v", i, got, want, a, avm, aem, b, bvm, bem)
		}
		if want == nil {
			refused++
			continue
		}
		joined++
		if !want.spanSet {
			spanless++
		}
		if !slices.Equal(got.slots, want.slots) || got.nvs != want.nvs || got.nv != want.nv || got.ne != want.ne ||
			got.Span != want.Span || got.spanSet != want.spanSet || got.EdgeSetHash() != want.EdgeSetHash() {
			t.Fatalf("draw %d: JoinMapped = %v %v, Remap+Remap+Join = %v %v", i, got, got.slots, want, want.slots)
		}
	}
	if joined < 10_000 || refused < 10_000 || spanless == 0 {
		t.Fatalf("%d joined (%d without a span), %d refused: the draws do not cover both outcomes", joined, spanless, refused)
	}
}

// TestJoinMappedAllocationBudget: a mapped join is one allocation, like
// Join, and a refused one none.
func TestJoinMappedAllocationBudget(t *testing.T) {
	left, right := NewSized(2, 1), NewSized(2, 1)
	left.BindVertex(0, 1)
	left.BindVertex(1, 2)
	left.BindEdge(0, 10, 100)
	right.BindVertex(0, 2)
	right.BindVertex(1, 3)
	right.BindEdge(0, 11, 200)
	lv, le := []query.VertexID{0, 1}, []query.EdgeID{0}
	rv, re := []query.VertexID{1, 2}, []query.EdgeID{1}
	var sink *Match
	allocbudget.Check(t, "match.JoinMapped", func() { sink = left.JoinMapped(3, 2, lv, le, right, rv, re) })
	if sink == nil || sink.NumVertices() != 3 || sink.NumEdges() != 2 {
		t.Fatalf("joined match = %v", sink)
	}
	// Both read through the left link's maps: they clash on the shared vertices.
	allocbudget.Check(t, "match.JoinMapped/refused", func() { sink = left.JoinMapped(3, 2, lv, le, right, lv, re) })
	if sink != nil {
		t.Fatalf("incompatible pair joined: %v", sink)
	}
}
