package match

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// legacySignature is the sort.Strings/strings.Join implementation Signature
// replaced. Its output is the pinned format — goldens, WAL emission notes
// and remote dedup all compare these strings — so it stays here as the
// oracle.
func legacySignature(m *Match) string {
	parts := make([]string, 0, m.ne)
	for qe, de := range m.edges() {
		if de == unbound {
			continue
		}
		parts = append(parts, strconv.Itoa(qe)+":"+strconv.FormatUint(de, 10))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// TestSignatureLexicographicOrder pins the one place the format is subtle:
// pairs sort as text, so pattern edge 10 precedes pattern edge 1.
func TestSignatureLexicographicOrder(t *testing.T) {
	m := NewSized(0, 11)
	m.BindEdge(1, 7, 0)
	m.BindEdge(2, 8, 0)
	m.BindEdge(10, 9, 0)
	if got, want := m.Signature(), "10:9,1:7,2:8"; got != want {
		t.Fatalf("Signature = %q, want %q", got, want)
	}
	if got := New().Signature(); got != "" {
		t.Fatalf("empty match Signature = %q", got)
	}
}

// TestSignatureMatchesLegacyEncoder: the encoder is byte-identical to the
// legacy implementation over random matches with unbound gaps, in pattern
// spaces on both sides of 10 and 100 edges (where text order and numeric
// order part ways) and past the encoder's stack buffer, and so is the one an
// Arena carves.
func TestSignatureMatchesLegacyEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(2468))
	var arena Arena
	for _, edges := range []int{1, 3, 9, 10, 11, 12, 20, 99, 100, 101, 150, 1234} {
		for trial := 0; trial < 200; trial++ {
			m := New() // grown on demand
			if trial%2 == 0 {
				m = NewSized(rng.Intn(4), edges)
			}
			density := rng.Float64()
			for qe := 0; qe < edges; qe++ {
				if rng.Float64() > density {
					continue // leave a gap
				}
				de := rng.Uint64() >> uint(rng.Intn(64)) // every decimal width
				if de == unbound {
					de--
				}
				m.BindEdge(query.EdgeID(qe), graph.EdgeID(de), graph.Timestamp(qe))
			}
			if got, want := m.Signature(), legacySignature(m); got != want {
				t.Fatalf("%d pattern edges, %d bound:\n got %q\nwant %q", edges, m.NumEdges(), got, want)
			}
			if got := arena.Signature(m); got != m.Signature() {
				t.Fatalf("%d pattern edges: Arena.Signature = %q, Signature = %q", edges, got, m.Signature())
			}
		}
	}
}

// completeMatch binds every slot of a 4-vertex, 3-edge pattern.
func completeMatch(base uint64) *Match {
	m := NewSized(4, 3)
	for qv := 0; qv < 4; qv++ {
		m.BindVertex(query.VertexID(qv), graph.VertexID(base+uint64(qv)))
	}
	for qe := 0; qe < 3; qe++ {
		m.BindEdge(query.EdgeID(qe), graph.EdgeID(base*10+uint64(qe)), graph.Timestamp(base))
	}
	return m
}

// TestMatchAllocationBudgets holds the one-object Match and the
// single-allocation signature encoder to their budgets, and an Arena's match
// and signature to none.
func TestMatchAllocationBudgets(t *testing.T) {
	if size := unsafe.Sizeof(Match{}); size != 64 {
		t.Errorf("Match header is %d bytes, want 64: every stored partial match pays for it", size)
	}
	m := completeMatch(1_000_000_000)
	left, right := NewSized(4, 3), NewSized(4, 3)
	left.BindVertex(0, 1)
	left.BindVertex(1, 2)
	left.BindEdge(0, 10, 5)
	right.BindVertex(1, 2)
	right.BindVertex(2, 3)
	right.BindEdge(1, 11, 6)
	vmap := []query.VertexID{3, 2, 1, 0}
	emap := []query.EdgeID{2, 0, 1}

	var sink *Match
	var sig string
	allocbudget.Check(t, "match.Signature", func() { sig = m.Signature() })
	allocbudget.Check(t, "match.Clone", func() { sink = m.Clone() })
	allocbudget.Check(t, "match.Join", func() { sink = left.Join(right) })
	var arena Arena
	allocbudget.Check(t, "match.Arena.RemapSlots", func() { sink = arena.RemapSlots(4, 3, m.vertices(), m.edges(), vmap, emap, m.Span) })
	allocbudget.Check(t, "match.Arena.Signature", func() { sig = arena.Signature(m) })
	if sink == nil || sig != m.Signature() {
		t.Fatal("measured operations produced nothing")
	}
}
