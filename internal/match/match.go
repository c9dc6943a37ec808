// Package match defines the partial-match representation shared by the
// isomorphism matcher, the SJ-Tree and the continuous engine.
//
// A Match binds a subset of a query graph's vertices and edges to concrete
// data-graph vertices and edges, together with the temporal interval spanned
// by the bound data edges. Matches are joined pairwise as they climb the
// SJ-Tree (paper §4.2); Join enforces the subgraph-isomorphism requirement
// that the combined vertex binding remain one-to-one.
//
// The representation is deliberately flat: pattern vertex and edge IDs are
// dense (assigned from 0 in registration order by the query builder), so the
// bindings are one slot array indexed by pattern ID rather than maps, in the
// same heap object as the match header. That makes Clone one allocation and
// a copy, Compatible/Join linear scans and the canonical match identity a
// cached 64-bit hash. String-valued identities (Signature, ProjectKey)
// survive only at the export/report boundary.
//
// The engine's shared DAG (internal/mqo) stores no Match: its partials are
// rows of these slot words (Slots, HashEdgeSlots), and a Match is built
// (Arena.RemapSlots) only to deliver a complete match: carved, with its
// signature, from the DAG's Arena, so delivery allocates nothing per match.
package match

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/slab"
)

// unbound is the "no binding" sentinel of the dense binding slots. The
// all-ones data IDs are reserved — graph.AddEdge rejects them at the ingest
// boundary (graph.ErrReservedID) — so the sentinel can never collide with a
// real binding. Vertex and edge slots both store raw uint64 IDs (vertex and
// edge IDs are uint64 underneath) so one slot array serves both.
const unbound = ^uint64(0)

// Match is a (possibly partial) homomorphic image of a query subgraph in the
// data graph under the one-to-one vertex correspondence required by subgraph
// isomorphism. The zero value is an empty match ready for extension.
//
// A match is a single heap object: the sized constructors (and Clone, Join)
// allocate the header and its binding slots together (see NewSized), so
// producing a match costs one allocation. Only a zero-value match grown on
// demand, or a pattern wider than the largest inline size, spills its slots
// into a second object. A delivered match is carved from an Arena instead
// and costs none.
type Match struct {
	// slots holds the vertex slots followed by the edge slots:
	// slots[:nvs][qv] is the data vertex bound to pattern vertex qv and
	// slots[nvs:][qe] the data edge bound to pattern edge qe, or unbound.
	slots []uint64
	nvs   int32
	// nv and ne count the bound entries so NumVertices/NumEdges stay O(1).
	nv, ne int32
	// spanSet records whether Span has been initialized by at least one
	// edge; hashOK is cleared whenever an edge binding changes.
	spanSet, hashOK bool

	// Span is the closed interval covering the timestamps of all bound data
	// edges; it is the τ(g) of the paper.
	Span graph.Interval
	// hash caches EdgeSetHash.
	hash uint64
}

// vertices returns the vertex slots, indexed by pattern vertex ID.
func (m *Match) vertices() []uint64 { return m.slots[:m.nvs] }

// edges returns the edge slots, indexed by pattern edge ID.
func (m *Match) edges() []uint64 { return m.slots[m.nvs:] }

// inline is a match header with a slot array of type A behind it.
type inline[A any] struct {
	Match
	s A
}

// New returns an empty match.
func New() *Match { return &Match{} }

// NewSized returns an empty match with binding storage for nv pattern
// vertices and ne pattern edges, avoiding any later growth, as one heap
// object: an inline of the smallest fitting array (steps chosen to land on
// the allocator's size classes) whose header's slots points into its own
// array.
func NewSized(nv, ne int) *Match {
	n := nv + ne
	var m *Match
	switch {
	case n <= 4:
		x := new(inline[[4]uint64])
		m, x.slots = &x.Match, x.s[:n]
	case n <= 8:
		x := new(inline[[8]uint64])
		m, x.slots = &x.Match, x.s[:n]
	case n <= 12:
		x := new(inline[[12]uint64])
		m, x.slots = &x.Match, x.s[:n]
	case n <= 16:
		x := new(inline[[16]uint64])
		m, x.slots = &x.Match, x.s[:n]
	case n <= 24:
		x := new(inline[[24]uint64])
		m, x.slots = &x.Match, x.s[:n]
	case n <= 32:
		x := new(inline[[32]uint64])
		m, x.slots = &x.Match, x.s[:n]
	default:
		m = &Match{slots: make([]uint64, n)}
	}
	m.nvs = int32(nv)
	for i := range m.slots {
		m.slots[i] = unbound
	}
	return m
}

// NewForQuery returns an empty match sized for the query graph q.
func NewForQuery(q *query.Graph) *Match {
	return NewSized(q.NumVertices(), q.NumEdges())
}

// NewFromEdge builds a single-edge match binding pattern edge qe (with
// pattern endpoints qsrc->qdst) to data edge de.
func NewFromEdge(qe query.EdgeID, qsrc, qdst query.VertexID, de *graph.Edge, reversed bool) *Match {
	m := NewSized(int(max(qsrc, qdst))+1, int(qe)+1)
	if reversed {
		m.BindVertex(qsrc, de.Target)
		m.BindVertex(qdst, de.Source)
	} else {
		m.BindVertex(qsrc, de.Source)
		m.BindVertex(qdst, de.Target)
	}
	m.BindEdge(qe, de.ID, de.Timestamp)
	return m
}

// growVertices extends the vertex slots to hold at least n entries, shifting
// the edge slots up behind them.
func (m *Match) growVertices(n int) {
	for ; int(m.nvs) < n; m.nvs++ {
		m.slots = slices.Insert(m.slots, int(m.nvs), unbound)
	}
}

// growEdges extends the edge slots to hold at least n entries.
func (m *Match) growEdges(n int) {
	for len(m.slots)-int(m.nvs) < n {
		m.slots = append(m.slots, unbound)
	}
}

// NumVertices returns the number of bound pattern vertices.
func (m *Match) NumVertices() int { return int(m.nv) }

// NumEdges returns the number of bound pattern edges.
func (m *Match) NumEdges() int { return int(m.ne) }

// HasSpan reports whether at least one edge has contributed to the temporal
// span.
func (m *Match) HasSpan() bool { return m.spanSet }

// Vertex returns the data vertex bound to the pattern vertex, if any.
func (m *Match) Vertex(q query.VertexID) (graph.VertexID, bool) {
	vs := m.vertices()
	if int(q) < 0 || int(q) >= len(vs) || vs[q] == unbound {
		return 0, false
	}
	return graph.VertexID(vs[q]), true
}

// Edge returns the data edge bound to the pattern edge, if any.
func (m *Match) Edge(q query.EdgeID) (graph.EdgeID, bool) {
	es := m.edges()
	if int(q) < 0 || int(q) >= len(es) || es[q] == unbound {
		return 0, false
	}
	return graph.EdgeID(es[q]), true
}

// ForEachVertex invokes fn for every bound pattern vertex in ascending
// pattern-ID order, stopping early when fn returns false.
func (m *Match) ForEachVertex(fn func(qv query.VertexID, dv graph.VertexID) bool) {
	for qv, dv := range m.vertices() {
		if dv == unbound {
			continue
		}
		if !fn(query.VertexID(qv), graph.VertexID(dv)) {
			return
		}
	}
}

// ForEachEdge invokes fn for every bound pattern edge in ascending
// pattern-ID order, stopping early when fn returns false.
func (m *Match) ForEachEdge(fn func(qe query.EdgeID, de graph.EdgeID) bool) {
	for qe, de := range m.edges() {
		if de == unbound {
			continue
		}
		if !fn(query.EdgeID(qe), graph.EdgeID(de)) {
			return
		}
	}
}

// CanBindVertex reports whether BindVertex(q, d) would succeed, without
// mutating the match: q must be unbound or already bound to d, and d must
// not be bound to any other pattern vertex (injectivity).
func (m *Match) CanBindVertex(q query.VertexID, d graph.VertexID) bool {
	vs := m.vertices()
	if int(q) < len(vs) && vs[q] != unbound {
		return vs[q] == uint64(d)
	}
	for _, bound := range vs {
		if bound == uint64(d) {
			return false
		}
	}
	return true
}

// BindVertex records that pattern vertex q is matched by data vertex d.
// It returns false (and leaves the match unchanged) when the binding would
// conflict with an existing binding of q or violate injectivity.
func (m *Match) BindVertex(q query.VertexID, d graph.VertexID) bool {
	if !m.CanBindVertex(q, d) {
		return false
	}
	if int(q) < int(m.nvs) && m.slots[q] == uint64(d) {
		return true
	}
	m.growVertices(int(q) + 1)
	m.slots[q] = uint64(d)
	m.nv++
	return true
}

// BindEdge records that pattern edge q is matched by data edge d with the
// given timestamp, extending the temporal span. It returns false when q is
// already bound to a different data edge.
func (m *Match) BindEdge(q query.EdgeID, d graph.EdgeID, ts graph.Timestamp) bool {
	if es := m.edges(); int(q) < len(es) && es[q] != unbound {
		return es[q] == uint64(d)
	}
	m.growEdges(int(q) + 1)
	m.edges()[q] = uint64(d)
	m.ne++
	m.hashOK = false
	if m.spanSet {
		m.Span = m.Span.Extend(ts)
	} else {
		m.Span = graph.NewInterval(ts)
		m.spanSet = true
	}
	return true
}

// UnbindVertex clears the binding of pattern vertex q, if any: a search that
// binds in place undoes a step with it.
func (m *Match) UnbindVertex(q query.VertexID) {
	if vs := m.vertices(); int(q) < len(vs) && vs[q] != unbound {
		vs[q] = unbound
		m.nv--
	}
}

// UnbindEdge clears the binding of pattern edge q, if any. The caller
// restores the Span it saved before BindEdge; a match left without edges has
// none.
func (m *Match) UnbindEdge(q query.EdgeID) {
	if es := m.edges(); int(q) < len(es) && es[q] != unbound {
		es[q] = unbound
		m.ne--
		m.hashOK = false
		m.spanSet = m.ne > 0
	}
}

// Slots returns the binding slots, the vertex slots followed by the edge
// slots, each the bound data ID or ^0 when unbound: a read-only view of the
// match's own storage, for a caller that copies the bindings out as words.
func (m *Match) Slots() []uint64 { return m.slots }

// UsesDataVertex reports whether any pattern vertex is bound to d.
func (m *Match) UsesDataVertex(d graph.VertexID) bool {
	for _, bound := range m.vertices() {
		if bound == uint64(d) {
			return true
		}
	}
	return false
}

// UsesDataEdge reports whether any pattern edge is bound to d.
func (m *Match) UsesDataEdge(d graph.EdgeID) bool {
	for _, bound := range m.edges() {
		if bound == uint64(d) {
			return true
		}
	}
	return false
}

// copyHeader copies everything but the binding slots from src.
func (m *Match) copyHeader(src *Match) {
	m.nv, m.ne = src.nv, src.ne
	m.Span, m.spanSet = src.Span, src.spanSet
	m.hash, m.hashOK = src.hash, src.hashOK
}

// Clone returns a deep copy of the match.
func (m *Match) Clone() *Match {
	c := NewSized(int(m.nvs), len(m.slots)-int(m.nvs))
	copy(c.slots, m.slots)
	c.copyHeader(m)
	return c
}

// Compatible reports whether m and o can be joined into a single consistent
// match: pattern vertices bound by both must map to the same data vertex,
// pattern edges bound by both must map to the same data edge, and the union
// of the vertex bindings must remain injective (no two distinct pattern
// vertices sharing a data vertex).
func (m *Match) Compatible(o *Match) bool {
	mvs, ovs := m.vertices(), o.vertices()
	for qv := 0; qv < min(len(mvs), len(ovs)); qv++ {
		mv, ov := mvs[qv], ovs[qv]
		if mv != unbound && ov != unbound && mv != ov {
			return false
		}
	}
	// Injectivity across the union: a data vertex bound by o at qv must not
	// be bound by m at a different pattern vertex. Pattern graphs are tiny
	// (a handful of vertices), so the nested scan beats building a reverse
	// map.
	for qv, ov := range ovs {
		if ov == unbound {
			continue
		}
		for qv2, mv := range mvs {
			if mv == ov && qv2 != qv {
				return false
			}
		}
	}
	mes, oes := m.edges(), o.edges()
	for qe := 0; qe < min(len(mes), len(oes)); qe++ {
		me, oe := mes[qe], oes[qe]
		if me != unbound && oe != unbound && me != oe {
			return false
		}
	}
	return true
}

// Join returns a new match combining the bindings of m and o, or nil when
// they are not Compatible. The temporal span of the result is the union of
// the two spans, matching the paper's join semantics (the joined subgraph's
// τ is the interval between its earliest and latest edge).
func (m *Match) Join(o *Match) *Match {
	if !m.Compatible(o) {
		return nil
	}
	mvs, mes := m.vertices(), m.edges()
	ovs, oes := o.vertices(), o.edges()
	j := NewSized(max(len(mvs), len(ovs)), max(len(mes), len(oes)))
	j.copyHeader(m)
	jvs, jes := j.vertices(), j.edges()
	copy(jvs, mvs)
	copy(jes, mes)
	for qv, ov := range ovs {
		if ov != unbound && jvs[qv] == unbound {
			jvs[qv] = ov
			j.nv++
		}
	}
	for qe, oe := range oes {
		if oe != unbound && jes[qe] == unbound {
			jes[qe] = oe
			j.ne++
			j.hashOK = false
		}
	}
	if o.spanSet {
		if j.spanSet {
			j.Span = j.Span.Union(o.Span)
		} else {
			j.Span = o.Span
			j.spanSet = true
		}
	}
	return j
}

// Arena carves delivered matches — header, slot words and signature bytes —
// from 8 KiB slab chunks (internal/slab), so building one allocates nothing
// but the occasional chunk. What it returns is immutable and may be kept: a
// retained match keeps its chunks alive, so holders that outlive a window
// copy what they keep. The zero value is ready to use; an Arena is
// single-goroutine state.
type Arena struct {
	headers slab.Slab[Match]
	words   slab.Slab[uint64]
	sigs    slab.Strings
}

// RemapSlots builds a match of nv vertices and ne edges from another pattern
// space's slot words vs and es (as Slots lays them out): bound vertex qv moves
// to vmap[qv], edge qe to emap[qe], and span is its span if it binds an edge.
// An out-of-range slot panics: a canonicalization bug, not a data condition.
func (a *Arena) RemapSlots(nv, ne int, vs, es []uint64, vmap []query.VertexID, emap []query.EdgeID, span graph.Interval) *Match {
	r := &a.headers.Make(1)[0]
	r.slots, r.nvs = a.words.Make(nv+ne), int32(nv)
	for i := range r.slots {
		r.slots[i] = unbound
	}
	rvs, res := r.vertices(), r.edges()
	for qv, dv := range vs {
		if dv != unbound {
			rvs[vmap[qv]] = dv
			r.nv++
		}
	}
	for qe, de := range es {
		if de != unbound {
			res[emap[qe]] = de
			r.ne++
		}
	}
	r.Span, r.spanSet = span, r.ne > 0
	return r
}

// Signature is m.Signature(), its bytes carved from the arena.
func (a *Arena) Signature(m *Match) string {
	var buf [256]byte
	return a.sigs.Copy(m.appendSignatures(buf[:0]))
}

// Mix64 is the splitmix64 finalizer, a fast 64-bit bijective mixer.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// edgeSetSeed is the hash of the empty edge set.
const edgeSetSeed = 0x9e3779b97f4a7c15

// EdgeSetHash returns a 64-bit hash of the exact pattern-edge → data-edge
// binding, the integer replacement for the legacy Signature string on the
// hot path. Two matches with equal bindings always hash equally; hash-keyed
// consumers (the SJ-Tree dedup sets) resolve the
// astronomically unlikely collisions with SameEdges equality checks. The
// hash is cached and only recomputed after an edge binding changes.
func (m *Match) EdgeSetHash() uint64 {
	if !m.hashOK {
		m.hash, m.hashOK = HashEdgeSlots(m.edges()), true
	}
	return m.hash
}

// HashEdgeSlots is EdgeSetHash of the edge slots es, as Slots lays them out,
// for a caller that keeps bindings as words.
func HashEdgeSlots(es []uint64) uint64 {
	h := uint64(edgeSetSeed)
	for qe, de := range es {
		if de == unbound {
			continue
		}
		// XOR-accumulating per-pair mixes keeps the hash independent of
		// iteration details while (qe, de) stay bound together.
		h ^= Mix64(de ^ Mix64(uint64(qe)+edgeSetSeed))
	}
	return h
}

// SameEdges reports whether m and o bind exactly the same pattern edges to
// the same data edges — the equality behind Signature() identity, without
// building the string.
func (m *Match) SameEdges(o *Match) bool {
	return m.ne == o.ne && m.SameEdgeSet(o.edges())
}

// EdgeSet returns the match's dense pattern-edge → data-edge binding with
// trailing unbound slots trimmed: the identity of the match and nothing
// else. The slice is a read-only view of the match's own storage; long-lived
// dedup sets (the SJ-Tree's emitted-match set) copy the words out so they
// never pin whole Match values — vertex bindings, spans and cache fields —
// for the lifetime of the stream.
func (m *Match) EdgeSet() []uint64 {
	e := m.edges()
	for len(e) > 0 && e[len(e)-1] == unbound {
		e = e[:len(e)-1]
	}
	return e
}

// SameEdgeSet reports whether the match's edge binding equals the dense
// binding s (as returned by EdgeSet; trailing unbound slots on either side
// are insignificant).
func (m *Match) SameEdgeSet(s []uint64) bool {
	long, short := m.edges(), s
	if len(long) < len(short) {
		long, short = short, long
	}
	for qe, de := range short {
		if de != long[qe] {
			return false
		}
	}
	for _, de := range long[len(short):] {
		if de != unbound {
			return false
		}
	}
	return true
}

// projectionInline is how many cut vertices a ProjectionKey stores exactly;
// wider cuts fold the remainder into the hash word. Collisions there only
// cost failed join attempts (Join re-checks compatibility), never
// correctness.
const projectionInline = 4

// ProjectionKey is the comparable hash-partition key of a match's projection
// onto a cut-vertex list. It replaces the legacy "v1|v2" ProjectKey strings
// inside the SJ-Tree.
type ProjectionKey struct {
	n      uint8
	inline [projectionInline]uint64
	hash   uint64
}

// Projection computes the match's projection key onto the given pattern
// vertices, in the order given. Unbound vertices project to a reserved
// sentinel, mirroring the "_" of the legacy string key.
func (m *Match) Projection(vertices []query.VertexID) ProjectionKey {
	k := ProjectionKey{n: uint8(len(vertices))}
	for i, qv := range vertices {
		dv := uint64(unbound)
		if int(qv) >= 0 && int(qv) < int(m.nvs) {
			dv = m.slots[qv]
		}
		if i < projectionInline {
			k.inline[i] = dv
		} else {
			k.hash ^= Mix64(dv ^ Mix64(uint64(i)))
		}
	}
	return k
}

// ProjectKey computes a deterministic string key for the match restricted to
// the given pattern vertices, in the order given. Missing bindings render as
// "_". The SJ-Tree now partitions on the integer Projection key; this string
// form remains for debugging and reports.
func (m *Match) ProjectKey(vertices []query.VertexID) string {
	var sb strings.Builder
	for i, qv := range vertices {
		if i > 0 {
			sb.WriteByte('|')
		}
		if dv, ok := m.Vertex(qv); ok {
			sb.WriteString(strconv.FormatUint(uint64(dv), 10))
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// Signature returns a canonical string identifying the exact set of data
// edges bound by the match: the "qe:de" pairs in lexicographic order of
// their text, comma-separated. Two matches with the same signature describe
// the same data subgraph assignment. The engine's hot path deduplicates on
// EdgeSetHash/SameEdges instead; the string form survives at the
// export/report boundary (export.MatchReport, remote match-set comparison)
// and its format is pinned by goldens and the WAL's emission notes.
func (m *Match) Signature() string {
	// Typical signatures (a handful of edges) fit the stack buffer, so the
	// only allocation is the returned string.
	var buf [256]byte
	return string(m.appendSignatures(buf[:0]))
}

// appendSignatures appends the match's whole signature to dst, walking each
// first-digit subtree with appendSignature.
func (m *Match) appendSignatures(dst []byte) []byte {
	for qe := 0; qe < min(10, len(m.edges())); qe++ {
		dst = m.appendSignature(dst, qe)
	}
	return dst
}

// appendSignature appends the pairs of every bound pattern edge whose
// decimal ID starts with the digits of qe, in the lexicographic order of
// "qe:" prefixes. ':' sorts after every digit, so a longer ID precedes its
// own prefix ("10:" < "1:"): the walk is post-order over the digit trie.
func (m *Match) appendSignature(dst []byte, qe int) []byte {
	es := m.edges()
	if qe > 0 {
		for c := qe * 10; c < min(qe*10+10, len(es)); c++ {
			dst = m.appendSignature(dst, c)
		}
	}
	if es[qe] == unbound {
		return dst
	}
	if len(dst) > 0 {
		dst = append(dst, ',')
	}
	dst = strconv.AppendUint(dst, uint64(qe), 10)
	dst = append(dst, ':')
	return strconv.AppendUint(dst, es[qe], 10)
}

// Complete reports whether the match covers every vertex and edge of q.
func (m *Match) Complete(q *query.Graph) bool {
	return int(m.nv) == q.NumVertices() && int(m.ne) == q.NumEdges()
}

// WithinWindow reports whether the temporal span of the match is strictly
// inside the window w (τ(g) < tW). Matches with no bound edges are trivially
// within any window; a zero window means unbounded.
func (m *Match) WithinWindow(w time.Duration) bool {
	if w <= 0 || !m.spanSet {
		return true
	}
	return m.Span.Within(w)
}

// String renders the match for debugging: pattern-vertex bindings in
// pattern order and the temporal span.
func (m *Match) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	m.ForEachVertex(func(qv query.VertexID, dv graph.VertexID) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "q%d->v%d", qv, dv)
		return true
	})
	fmt.Fprintf(&sb, "} edges=%d span=%s", m.ne, m.Span)
	return sb.String()
}
