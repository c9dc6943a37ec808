package sjtree

import (
	"slices"
	"sync/atomic"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
)

// sigSet deduplicates matches by their exact pattern-edge → data-edge
// binding. It is keyed on the match's cached 64-bit EdgeSetHash with
// equality-checked buckets (match.SameEdges), so it never builds the legacy
// Signature string and a hash collision can never drop a genuine match.
// Bucket slices are almost always length 1.
type sigSet struct {
	buckets map[uint64][]*match.Match
}

func newSigSet() sigSet {
	return sigSet{buckets: make(map[uint64][]*match.Match)}
}

// add records m's edge set. It returns false (and leaves the set unchanged)
// when an equal edge set is already present.
func (s *sigSet) add(m *match.Match) bool {
	h := m.EdgeSetHash()
	bucket := s.buckets[h]
	for _, other := range bucket {
		if other.SameEdges(m) {
			return false
		}
	}
	s.buckets[h] = append(bucket, m)
	return true
}

// completeSet deduplicates emitted complete matches by edge binding. Unlike
// sigSet — whose entries are the very matches the node stores and removes —
// it keeps nothing but each match's dense edge binding (match.EdgeSet),
// packed into a chunked word arena, behind a flat open-addressed table of
// (hash, arena reference) slots probed linearly.
//
// Entries expire with the window. A match whose Span.Start is below the
// expiry cutoff (graph.ExpiryCutoff) can never be derived again, so its
// entry is dead; the set forgets dead entries a generation at a time. It is
// a short ring of generations, each one table and arena remembering the
// largest Span.Start and Span.End it holds. An add looks in the generations
// that can hold the match — a binding fixes its edges, hence its span, and a
// match is recorded no earlier than its last edge arrives, so a new match
// ends after everything in the sealed generations and is looked up in the
// newest alone — and inserts into the newest; expire seals the newest once
// the cutoff has moved
// retention/sealsPerRetention since it opened, and drops a sealed generation
// whole once the largest Span.Start in it is below the cutoff, keeping its
// table and chunks for the next generation to open. So there are no
// per-entry timestamps, tombstones or deletes, the set holds at most
// 1 + 1/sealsPerRetention retentions of matches, and an add or a drop
// allocates only when a table doubles or an arena needs one more chunk. With
// unbounded retention the cutoff never moves and there is one generation for
// ever. The zero value is an empty set.
type completeSet struct {
	gens []generation // oldest first; the last is open, the others sealed
	n    int          // entries across gens
	// cutoff is the newest expiry bound applied, openedAt what it was when
	// the newest generation opened.
	cutoff, openedAt graph.Timestamp
	spare            []generation // dropped and reset, for open to take
}

// sealsPerRetention is how many generations are sealed while the cutoff
// crosses one retention: a dead entry outlives the cutoff by at most
// 1/sealsPerRetention of a retention, at the price of that many more
// generations alive at once.
const sealsPerRetention = 8

// generation is one table and arena of the ring, with the largest
// Span.Start and Span.End among its n entries. The arena is chunks[:used];
// the chunks behind it are empty ones kept from the generation's previous
// life.
type generation struct {
	table            []completeSlot // power-of-two length, or nil
	n                int
	chunks           [][]uint64
	used             int
	maxStart, maxEnd graph.Timestamp
}

// completeSlot is one table entry: the full 64-bit hash, and where the
// binding's words live. ref is 1 + chunk<<arenaChunkBits + offset, so the
// zero slot is empty; words is the binding's length.
type completeSlot struct {
	hash  uint64
	ref   uint32
	words uint32
}

const (
	// arenaChunkBits sizes the arena chunks: 8192 words (64 KiB), reached by
	// doubling from 64 words so the small sets of many standing queries do
	// not each pin a full chunk. A 32-bit ref addresses 32 GiB of bindings.
	// Each size is handed out arenaChunksPerSize times before the next, so a
	// chunk only just begun is under a quarter of an arena past 8 KiB, not
	// half of it: capacity follows what is stored in small steps, and two
	// streams a few matches apart do not pin arenas a doubling apart.
	arenaChunkBits     = 13
	arenaFirstBits     = 6
	arenaChunksPerSize = 4
	// slotBytes and wordBytes price a table slot and an arena word.
	slotBytes = 16
	wordBytes = 8
)

// keepEmitted turns expire into a no-op: the grow-only set that the
// exactly-once tests compare an evicting run against.
var keepEmitted atomic.Bool

// KeepEmittedForTest makes every emitted set in the process keep its dead
// entries (keep = true) or evict them again (false). Tests only.
func KeepEmittedForTest(keep bool) { keepEmitted.Store(keep) }

// add records m's edge set, returning false when already present.
func (s *completeSet) add(m *match.Match) bool { return s.addHashed(m.EdgeSetHash(), m) }

// addHashed is add with the hash supplied by the caller (tests inject
// colliding hashes): equal hashes are told apart by comparing the stored
// words, so a collision can never drop a genuine match.
func (s *completeSet) addHashed(h uint64, m *match.Match) bool {
	if len(s.gens) == 0 {
		s.open()
	}
	sealed := s.gens[:len(s.gens)-1]
	for i := range sealed {
		g := &sealed[i]
		if m.Span.Start > g.maxStart || m.Span.End > g.maxEnd {
			continue
		}
		if _, found := g.find(h, m); found {
			return false
		}
	}
	open := &s.gens[len(sealed)]
	if 4*(open.n+1) > 3*len(open.table) {
		open.grow()
	}
	i, found := open.find(h, m)
	if found {
		return false
	}
	ref, words := open.store(m)
	open.table[i] = completeSlot{hash: h, ref: ref, words: words}
	if open.n == 0 {
		open.maxStart, open.maxEnd = m.Span.Start, m.Span.End
	}
	open.maxStart, open.maxEnd = max(open.maxStart, m.Span.Start), max(open.maxEnd, m.Span.End)
	open.n++
	s.n++
	return true
}

// find probes the table for m's binding: the slot holding it, or the empty
// slot where it belongs. The table must have a free slot.
func (g *generation) find(h uint64, m *match.Match) (slot uint64, found bool) {
	mask := uint64(len(g.table) - 1)
	i := h & mask
	for ; g.table[i].ref != 0; i = (i + 1) & mask {
		if e := g.table[i]; e.hash == h && m.SameEdgeSet(g.words(e)) {
			return i, true
		}
	}
	return i, false
}

// words returns the arena words of one slot's binding.
func (g *generation) words(e completeSlot) []uint64 {
	at := e.ref - 1
	off := at & (1<<arenaChunkBits - 1)
	return g.chunks[at>>arenaChunkBits][off : off+e.words]
}

// store copies m's edge binding into the arena, moving on to the next chunk
// — a kept one when it fits, else a new one — when the current one cannot
// hold it. A binding wider than a whole chunk gets one of its own.
func (g *generation) store(m *match.Match) (ref, words uint32) {
	es := m.EdgeSet()
	if g.used == 0 || !chunkFits(g.chunks[g.used-1], len(es)) {
		if g.used == len(g.chunks) || !chunkFits(g.chunks[g.used], len(es)) {
			size := 1 << arenaChunkBits
			if bits := arenaFirstBits + g.used/arenaChunksPerSize; bits < arenaChunkBits {
				size = 1 << bits
			}
			g.chunks = slices.Insert(g.chunks, g.used, make([]uint64, 0, max(size, len(es))))
		}
		g.used++
	}
	last := g.used - 1
	off := len(g.chunks[last])
	g.chunks[last] = append(g.chunks[last], es...)
	return uint32(last<<arenaChunkBits+off) + 1, uint32(len(es))
}

// chunkFits reports whether chunk c can take width more words: entries never
// straddle chunks, nor end past what a ref's offset bits address unless they
// have the chunk to themselves.
func chunkFits(c []uint64, width int) bool {
	return len(c)+width <= min(cap(c), 1<<arenaChunkBits) || len(c) == 0 && width <= cap(c)
}

// grow doubles the table and reinserts every slot by its stored hash; the
// arena is untouched.
func (g *generation) grow() {
	old := g.table
	g.table = make([]completeSlot, max(2*len(old), 8))
	mask := uint64(len(g.table) - 1)
	for _, e := range old {
		if e.ref == 0 {
			continue
		}
		i := e.hash & mask
		for g.table[i].ref != 0 {
			i = (i + 1) & mask
		}
		g.table[i] = e
	}
}

// reset empties the generation for reuse. It keeps the table and the chunks
// its entries filled — unless the table was mostly empty, or chunks went
// unused — so that what a generation holds on to follows the recent match
// rate down as well as up, while a steady rate turns the ring over without
// allocating.
func (g *generation) reset() {
	if 8*g.n < len(g.table) {
		g.table = nil
	}
	clear(g.table)
	for i := range g.chunks[:g.used] {
		g.chunks[i] = g.chunks[i][:0]
	}
	clear(g.chunks[g.used:])
	g.chunks = g.chunks[:g.used]
	g.n, g.used = 0, 0
}

// open starts a new generation at the current cutoff, on a dropped one's
// table and chunks when there is one.
func (s *completeSet) open() {
	var g generation
	if last := len(s.spare) - 1; last >= 0 {
		g, s.spare[last] = s.spare[last], generation{}
		s.spare = s.spare[:last]
	}
	s.gens = append(s.gens, g)
	s.openedAt = s.cutoff
}

// expire applies a new expiry cutoff: sealed generations holding nothing at
// or above it are dropped, and the open one is sealed when the cutoff has
// moved far enough since it opened. It returns how many entries went.
func (s *completeSet) expire(cutoff graph.Timestamp, retention time.Duration) int {
	if cutoff <= s.cutoff || keepEmitted.Load() {
		return 0
	}
	s.cutoff = cutoff
	if len(s.gens) == 0 {
		return 0
	}
	dropped := 0
	open := len(s.gens) - 1
	kept := s.gens[:0]
	for i, g := range s.gens {
		if i == open || g.maxStart >= cutoff {
			kept = append(kept, g)
			continue
		}
		dropped += g.n
		g.reset()
		s.spare = append(s.spare, g)
	}
	clear(s.gens[len(kept):])
	s.gens = kept
	s.n -= dropped
	if cutoff.Sub(s.openedAt) >= retention/sealsPerRetention {
		if s.gens[len(s.gens)-1].n > 0 {
			s.open()
		} else {
			s.openedAt = cutoff
		}
	}
	return dropped
}

// bytes estimates the set's resident size: table slots and arena words at
// capacity, spare generations included.
func (s *completeSet) bytes() int {
	slots, words := 0, 0
	for _, gens := range [][]generation{s.gens, s.spare} {
		for _, g := range gens {
			slots += len(g.table)
			for _, c := range g.chunks {
				words += cap(c)
			}
		}
	}
	return slots*slotBytes + words*wordBytes
}

// remove forgets the previously added match (by pointer identity, falling
// back to edge-set equality for safety). Removing an absent match is a
// no-op.
func (s *sigSet) remove(m *match.Match) {
	h := m.EdgeSetHash()
	bucket := s.buckets[h]
	for i, other := range bucket {
		if other == m || other.SameEdges(m) {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			bucket[last] = nil
			if last == 0 {
				delete(s.buckets, h)
			} else {
				s.buckets[h] = bucket[:last]
			}
			return
		}
	}
}
