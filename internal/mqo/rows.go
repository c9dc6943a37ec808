package mqo

import (
	"math/bits"
	"slices"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
)

// rows is one DAG node's partial matches (Property 3 of the SJ-Tree) as
// rows of one word arena. A node's canonical fragment has a fixed shape and
// every partial it stores binds all of it, so a partial is a fixed-width row:
// the data vertices bound to the nv canonical vertices and the data edges
// bound to the ne canonical edges (match.Match's slot layout), then the
// span's start and end. Rows are appended in insertion order and compacted by
// the prune sweep. Only a node with a parent stores rows: they are there for
// its parents' joins to read.
//
// Live derivation never repeats a row, so add appends without looking: a new
// leaf row binds the arriving edge at its seed's position, a join probes each
// pair of child and sibling rows once, and a parent row determines the pair
// it came from. A backfill does repeat rows — a leaf finds an embedding once
// per edge of it, a widened node re-derives what it keeps — so while one runs
// the rows are indexed: a table keyed by their binding (vertex and edge
// words), built over the stored rows by index and dropped by unindex, through
// which add refuses a row it holds. The edge words alone would not do: a
// mirrored fragment's row and its mirror bind the same edges (node.mirrored),
// and a join on either endpoint reads both.
type rows struct {
	nv, ne, width int
	words         []uint64 // row r is words[r*width : (r+1)*width]
	dedup         table    // keyed by binding, while indexed
	// inserted counts the rows ever added, pruned those the sweep removed.
	inserted, pruned uint64
}

func newRows(nv, ne int) rows { return rows{nv: nv, ne: ne, width: nv + ne + 2} }

func (s *rows) len() int { return len(s.words) / s.width }

// row returns the words of row r: a view of the arena, valid until the next
// add or sweep.
func (s *rows) row(r int) []uint64 { return s.words[r*s.width : (r+1)*s.width : (r+1)*s.width] }

func (s *rows) edges(row []uint64) []uint64 { return row[s.nv : s.nv+s.ne] }

// binding returns the vertex and edge words of row: all of it but the span.
func (s *rows) binding(row []uint64) []uint64 { return row[:s.nv+s.ne] }

func (s *rows) span(row []uint64) graph.Interval {
	return graph.Interval{Start: graph.Timestamp(row[s.nv+s.ne]), End: graph.Timestamp(row[s.nv+s.ne+1])}
}

func (s *rows) setSpan(row []uint64, iv graph.Interval) {
	row[s.nv+s.ne], row[s.nv+s.ne+1] = uint64(iv.Start), uint64(iv.End)
}

// add copies row in and returns its index, unless the rows are indexed and a
// row with the same binding is stored: then it reports false. hash hashes
// binding words, match.HashEdgeSlots but where a test forces collisions.
func (s *rows) add(row []uint64, hash func([]uint64) uint64) (int, bool) {
	r := s.len()
	if s.indexed() {
		h := hash(s.binding(row))
		s.dedup.reserve()
		e, found := s.dedup.find(h, func(f int) bool { return slices.Equal(s.binding(s.row(f)), s.binding(row)) })
		if found {
			return 0, false
		}
		s.dedup.put(e, h, r)
	}
	s.words = append(s.words, row...)
	s.inserted++
	return r, true
}

// index builds the dedup table over the stored rows, hashed by hash. A sweep
// leaves the table behind, so the rows are indexed only while no sweep can
// run: inside a backfill.
func (s *rows) index(hash func([]uint64) uint64) {
	s.dedup = table{slots: make([]slot, max(8, 1<<bits.Len(uint(2*s.len()))))}
	for r := range s.len() {
		h := hash(s.binding(s.row(r)))
		e, _ := s.dedup.find(h, nil)
		s.dedup.put(e, h, r)
	}
}

func (s *rows) indexed() bool { return s.dedup.slots != nil }

func (s *rows) unindex() { s.dedup = table{} }

// table is a flat open-addressed hash table of rows, probed linearly, equal
// hashes told apart by the caller's comparison. There are no tombstones: its
// owner resets and refills it. first is a row + 1, so 0 marks a free slot; a
// cut index keeps the last row of the key's chain + 1 in last.
type table struct {
	slots []slot
	n     int
}

type slot struct {
	hash        uint64
	first, last int32
}

// find returns the slot of the entry hashing to h that same accepts (nil
// accepts none), or the free slot where it belongs.
func (t *table) find(h uint64, same func(first int) bool) (*slot, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.first == 0 {
			return e, false
		}
		if e.hash == h && same != nil && same(int(e.first-1)) {
			return e, true
		}
	}
}

// put fills the free slot e with row r.
func (t *table) put(e *slot, h uint64, r int) {
	*e = slot{hash: h, first: int32(r + 1), last: int32(r + 1)}
	t.n++
}

// reserve makes room for one more entry, doubling the table past ¾ full.
func (t *table) reserve() {
	if 4*(t.n+1) <= 3*len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]slot, max(2*len(old), 8))
	for _, e := range old {
		if e.first != 0 {
			free, _ := t.find(e.hash, nil)
			*free = e
		}
	}
}

// reset empties the table for n entries to be put back, on a new one when it
// is past 8 slots and more than eight times n.
func (t *table) reset(n int) {
	if len(t.slots) > 8 && 8*n < len(t.slots) {
		t.slots = make([]slot, max(8, 1<<bits.Len(uint(2*n))))
	} else {
		clear(t.slots)
	}
	t.n = 0
}

// cutIndex hash-partitions a child's rows on their projection onto one
// parent link's cut vertices (Property 4), so a sibling join is a lookup. It
// copies nothing: the table maps a cut key to the first and last of its rows
// and next chains the rows of one key in insertion order. Keys compare by
// their words, read from the rows, so a cut of any width partitions exactly.
type cutIndex struct {
	keys table
	// next[r] is the row after child row r under its key, chainEnd at the
	// tail, or unindexed once the parent's prune dropped a row the child
	// kept.
	next []int32
}

const (
	chainEnd  = -1
	unindexed = -2
)

// add indexes the child's newest row r, whose key hashes to h.
func (x *cutIndex) add(child *rows, cuts []query.VertexID, r int, h uint64) {
	x.next = append(x.next, chainEnd)
	x.link(child, cuts, r, h)
}

// link appends row r to its key's chain.
func (x *cutIndex) link(child *rows, cuts []query.VertexID, r int, h uint64) {
	x.next[r] = chainEnd
	x.keys.reserve()
	row := child.row(r)
	e, found := x.keys.find(h, func(f int) bool { return sameKey(child.row(f), cuts, row, cuts) })
	if !found {
		x.keys.put(e, h, r)
		return
	}
	x.next[e.last-1] = int32(r)
	e.last = int32(r + 1)
}

// probe returns the first row indexed under the key of a sibling row at its
// own link's cuts, hashing to h, or chainEnd; next continues the chain.
func (x *cutIndex) probe(child *rows, cuts []query.VertexID, key []uint64, keyCuts []query.VertexID, h uint64) int {
	if x.keys.n == 0 {
		return chainEnd
	}
	e, found := x.keys.find(h, func(f int) bool { return sameKey(child.row(f), cuts, key, keyCuts) })
	if !found {
		return chainEnd
	}
	return int(e.first - 1)
}

func sameKey(a []uint64, aCuts []query.VertexID, b []uint64, bCuts []query.VertexID) bool {
	for i, v := range aCuts {
		if a[v] != b[bCuts[i]] {
			return false
		}
	}
	return true
}

// hashKey hashes the cut key of row, its words at cuts in order.
func hashKey(row []uint64, cuts []query.VertexID) uint64 {
	var h uint64
	for _, v := range cuts {
		h = match.Mix64(h ^ row[v])
	}
	return h
}

// drops is the prune predicate of a node with the given window (0 for the
// retention): a row whose span starts a window below wm. Under the retention
// that is a row binding an edge the window graph has expired.
func drops(window, retention time.Duration, wm graph.Timestamp, s *rows, row []uint64) bool {
	w := orRetention(window, retention)
	return w > 0 && s.span(row).Start < wm-graph.Timestamp(w)
}

// keepRows is the capacity, in rows, that an arena or chain array keeps
// however empty it gets, so a node whose few partials come and go does not
// reallocate at every sweep.
const keepRows = 16

// sweep prunes n's rows by n's rule, and each parent link's index of them by
// that parent's rule, and returns how many rows it removed. The live rows are
// compacted down in insertion order and the cut indexes over them refilled,
// under keyHash (hashKey but in tests), so a row never outlives its sweep and
// chains keep insertion order. Capacity follows the rows down: an arena or
// chain array past keepRows rows and more than four times what it holds is
// reallocated at twice that, and so is a key table past 8 slots and more than
// eight times (table.reset). The dedup table is not refilled: the rows are
// indexed only inside a backfill, where no sweep runs.
func sweep(n *node, wm graph.Timestamp, retention time.Duration, keyHash func([]uint64, []query.VertexID) uint64) int {
	s := &n.rows
	// Until the first drop every row stays where it is, chains included; from
	// there on next only says whether a kept row stays indexed.
	total, kept, dirty := s.len(), 0, false
	for r := 0; r < total; r++ {
		row := s.row(r)
		if drops(n.window, retention, wm, s, row) {
			dirty = true
			continue
		}
		for _, pl := range n.parents {
			x := &pl.link.idx
			in := x.next[r] != unindexed
			if in && drops(pl.parent.window, retention, wm, s, row) {
				in, dirty = false, true
			}
			if dirty {
				x.next[kept] = chainEnd
				if !in {
					x.next[kept] = unindexed
				}
			}
		}
		copy(s.words[kept*s.width:], row)
		kept++
	}
	if !dirty {
		return 0
	}
	s.words = shrink(s.words[:kept*s.width], keepRows*s.width)
	s.pruned += uint64(total - kept)
	for _, pl := range n.parents {
		x := &pl.link.idx
		x.next = shrink(x.next[:kept], keepRows)
		x.keys.reset(kept)
		for r, nx := range x.next {
			if nx != unindexed {
				x.link(s, pl.link.cuts, r, keyHash(s.row(r), pl.link.cuts))
			}
		}
	}
	return total - kept
}

// shrink returns a, reallocated at twice its length when its capacity is
// above floor and more than four times that.
func shrink[T any](a []T, floor int) []T {
	if cap(a) <= max(4*len(a), floor) {
		return a
	}
	return append(make([]T, 0, 2*len(a)), a...)
}
