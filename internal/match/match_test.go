package match

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// TestUnbindUndoesBind: a step bound in place and unbound again, with the
// span restored, leaves the match as it was — bindings, counts, hash, and no
// span once its last edge goes — and frees the data vertex for another
// pattern vertex.
func TestUnbindUndoesBind(t *testing.T) {
	m := NewSized(3, 2)
	m.BindVertex(0, 7)
	m.BindVertex(1, 9)
	m.BindEdge(0, 100, 500)
	before, span, hash := m.Clone(), m.Span, m.EdgeSetHash()
	m.BindVertex(2, 11)
	m.BindEdge(1, 101, 900)
	m.UnbindEdge(1)
	m.UnbindVertex(2)
	m.Span = span
	if m.String() != before.String() || m.EdgeSetHash() != hash || m.Signature() != before.Signature() {
		t.Fatalf("after the undo %v (hash %x), before %v (hash %x)", m, m.EdgeSetHash(), before, hash)
	}
	m.UnbindVertex(2) // unbound already: nothing to undo
	m.UnbindEdge(0)
	m.UnbindVertex(1)
	m.UnbindVertex(0)
	if m.NumVertices() != 0 || m.NumEdges() != 0 || m.HasSpan() || !m.CanBindVertex(2, 7) {
		t.Fatalf("unbinding everything left %v", m)
	}
}

func TestBindVertexInjectivity(t *testing.T) {
	m := New()
	if !m.BindVertex(0, 10) {
		t.Fatalf("first binding rejected")
	}
	if !m.BindVertex(0, 10) {
		t.Fatalf("re-binding to same data vertex rejected")
	}
	if m.BindVertex(0, 11) {
		t.Fatalf("conflicting re-binding accepted")
	}
	if m.BindVertex(1, 10) {
		t.Fatalf("injectivity violation accepted")
	}
	if !m.BindVertex(1, 11) {
		t.Fatalf("valid second binding rejected")
	}
	if m.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d", m.NumVertices())
	}
}

func TestBindEdgeAndSpan(t *testing.T) {
	m := New()
	if m.HasSpan() {
		t.Fatalf("empty match should have no span")
	}
	if !m.BindEdge(0, 100, 50) {
		t.Fatalf("bind edge failed")
	}
	if !m.BindEdge(1, 101, 90) {
		t.Fatalf("bind edge failed")
	}
	if !m.BindEdge(1, 101, 90) {
		t.Fatalf("idempotent rebind failed")
	}
	if m.BindEdge(1, 999, 90) {
		t.Fatalf("conflicting edge rebind accepted")
	}
	if m.Span.Start != 50 || m.Span.End != 90 {
		t.Fatalf("span = %v", m.Span)
	}
	if !m.UsesDataEdge(100) || m.UsesDataEdge(12345) {
		t.Fatalf("UsesDataEdge wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New()
	m.BindVertex(0, 1)
	m.BindEdge(0, 10, 5)
	c := m.Clone()
	c.BindVertex(1, 2)
	c.BindEdge(1, 11, 50)
	if m.NumVertices() != 1 || m.NumEdges() != 1 {
		t.Fatalf("clone mutated original")
	}
	if m.Span.End != 5 {
		t.Fatalf("clone mutated original span")
	}
}

func TestCompatibleSharedVertexAgreement(t *testing.T) {
	a := New()
	a.BindVertex(0, 10)
	a.BindVertex(1, 11)
	b := New()
	b.BindVertex(1, 11)
	b.BindVertex(2, 12)
	if !a.Compatible(b) {
		t.Fatalf("agreeing matches reported incompatible")
	}
	c := New()
	c.BindVertex(1, 99)
	if a.Compatible(c) {
		t.Fatalf("disagreeing shared vertex reported compatible")
	}
}

func TestCompatibleInjectivityAcrossJoin(t *testing.T) {
	a := New()
	a.BindVertex(0, 10)
	b := New()
	b.BindVertex(1, 10) // different pattern vertex, same data vertex
	if a.Compatible(b) {
		t.Fatalf("injectivity violation across join not detected")
	}
}

func TestCompatibleEdgeConflict(t *testing.T) {
	a := New()
	a.BindEdge(0, 100, 1)
	b := New()
	b.BindEdge(0, 200, 2)
	if a.Compatible(b) {
		t.Fatalf("conflicting edge bindings reported compatible")
	}
	c := New()
	c.BindEdge(0, 100, 1)
	if !a.Compatible(c) {
		t.Fatalf("identical edge bindings reported incompatible")
	}
}

func TestJoinMergesBindingsAndSpan(t *testing.T) {
	a := New()
	a.BindVertex(0, 10)
	a.BindVertex(1, 11)
	a.BindEdge(0, 100, 50)
	b := New()
	b.BindVertex(1, 11)
	b.BindVertex(2, 12)
	b.BindEdge(1, 101, 200)
	j := a.Join(b)
	if j == nil {
		t.Fatalf("join of compatible matches returned nil")
	}
	if j.NumVertices() != 3 || j.NumEdges() != 2 {
		t.Fatalf("join sizes wrong: %v", j)
	}
	if j.Span.Start != 50 || j.Span.End != 200 {
		t.Fatalf("join span wrong: %v", j.Span)
	}
	// Join must not mutate operands.
	if a.NumVertices() != 2 || b.NumVertices() != 2 {
		t.Fatalf("join mutated operands")
	}
	bad := New()
	bad.BindVertex(0, 999)
	if a.Join(bad) != nil {
		t.Fatalf("join of incompatible matches should be nil")
	}
}

func TestJoinWithSpanlessOperand(t *testing.T) {
	a := New()
	a.BindVertex(0, 1)
	b := New()
	b.BindVertex(1, 2)
	b.BindEdge(0, 10, 77)
	j := a.Join(b)
	if !j.HasSpan() || j.Span.Start != 77 {
		t.Fatalf("span not inherited from right operand: %v", j)
	}
	j2 := b.Join(a)
	if !j2.HasSpan() || j2.Span.Start != 77 {
		t.Fatalf("span not preserved in left operand: %v", j2)
	}
}

// Property: Join is commutative with respect to the resulting bindings and
// span whenever the operands are compatible.
func TestJoinCommutativityProperty(t *testing.T) {
	f := func(av, bv [4]uint8, at, bt uint16) bool {
		a, b := New(), New()
		for i, v := range av {
			a.BindVertex(query.VertexID(i), graph.VertexID(v))
		}
		for i, v := range bv {
			b.BindVertex(query.VertexID(i+2), graph.VertexID(v)) // overlap on 2,3
		}
		a.BindEdge(0, 1000, graph.Timestamp(at))
		b.BindEdge(1, 1001, graph.Timestamp(bt))
		ab, ba := a.Join(b), b.Join(a)
		if (ab == nil) != (ba == nil) {
			return false
		}
		if ab == nil {
			return true
		}
		if ab.Signature() != ba.Signature() || ab.Span != ba.Span {
			return false
		}
		return ab.ProjectKey([]query.VertexID{0, 1, 2, 3, 4, 5}) == ba.ProjectKey([]query.VertexID{0, 1, 2, 3, 4, 5})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectKey(t *testing.T) {
	m := New()
	m.BindVertex(0, 10)
	m.BindVertex(1, 20)
	if k := m.ProjectKey([]query.VertexID{0, 1}); k != "10|20" {
		t.Fatalf("ProjectKey = %q", k)
	}
	if k := m.ProjectKey([]query.VertexID{1, 0}); k != "20|10" {
		t.Fatalf("ProjectKey order must follow the argument order: %q", k)
	}
	if k := m.ProjectKey([]query.VertexID{5}); k != "_" {
		t.Fatalf("missing binding should render as _: %q", k)
	}
}

func TestSignatureCanonical(t *testing.T) {
	a := New()
	a.BindEdge(1, 200, 5)
	a.BindEdge(0, 100, 3)
	b := New()
	b.BindEdge(0, 100, 3)
	b.BindEdge(1, 200, 5)
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures differ for identical edge sets: %q vs %q", a.Signature(), b.Signature())
	}
	c := New()
	c.BindEdge(0, 100, 3)
	if a.Signature() == c.Signature() {
		t.Fatalf("different edge sets share a signature")
	}
}

func TestCompleteAgainstQuery(t *testing.T) {
	q := query.NewBuilder("tri").
		Vertex("a", "").Vertex("b", "").Vertex("c", "").
		Edge("a", "b", "e").Edge("b", "c", "e").Edge("c", "a", "e").
		MustBuild()
	m := New()
	m.BindVertex(0, 1)
	m.BindVertex(1, 2)
	m.BindVertex(2, 3)
	m.BindEdge(0, 10, 1)
	m.BindEdge(1, 11, 2)
	if m.Complete(q) {
		t.Fatalf("incomplete match reported complete")
	}
	m.BindEdge(2, 12, 3)
	if !m.Complete(q) {
		t.Fatalf("complete match reported incomplete")
	}
}

func TestWithinWindow(t *testing.T) {
	m := New()
	if !m.WithinWindow(time.Second) {
		t.Fatalf("spanless match should be within any window")
	}
	m.BindEdge(0, 1, 0)
	m.BindEdge(1, 2, graph.Timestamp(5*time.Minute))
	if !m.WithinWindow(0) {
		t.Fatalf("zero window means unbounded")
	}
	if !m.WithinWindow(6 * time.Minute) {
		t.Fatalf("span 5m should be within 6m")
	}
	if m.WithinWindow(5 * time.Minute) {
		t.Fatalf("window test must be strict: 5m span not < 5m window")
	}
	if m.WithinWindow(time.Minute) {
		t.Fatalf("span 5m should not fit in 1m window")
	}
}

func TestMatchString(t *testing.T) {
	m := New()
	m.BindVertex(1, 20)
	m.BindVertex(0, 10)
	m.BindEdge(0, 5, 7)
	s := m.String()
	if s == "" || s[0] != '{' {
		t.Fatalf("String() = %q", s)
	}
}
