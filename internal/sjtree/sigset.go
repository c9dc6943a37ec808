package sjtree

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
)

// sigSet deduplicates the matches a node stores by their exact pattern-edge →
// data-edge binding: a flat open-addressed table of (hash, match) slots,
// probed linearly on the match's cached 64-bit EdgeSetHash, with equal hashes
// told apart by match.SameEdges — so it never builds the legacy Signature
// string, a hash collision can never drop a genuine match, and a stored
// partial costs a slot, not a bucket of its own. There are no tombstones and
// no deletes: the owner prunes its matches and rebuilds the table from what
// it kept. The zero value is an empty set.
type sigSet struct {
	table []sigSlot // power-of-two length, or nil; m == nil marks a free slot
	n     int
}

type sigSlot struct {
	hash uint64
	m    *match.Match
}

// add records m's edge set. It returns false (and leaves the set unchanged)
// when an equal edge set is already present.
func (s *sigSet) add(m *match.Match) bool { return s.addHashed(m.EdgeSetHash(), m) }

// addHashed is add with the hash supplied by the caller (tests inject
// colliding hashes).
func (s *sigSet) addHashed(h uint64, m *match.Match) bool {
	if 4*(s.n+1) > 3*len(s.table) {
		old := s.table
		s.table = make([]sigSlot, max(2*len(old), 8))
		for _, e := range old {
			if e.m != nil {
				s.table[s.free(e.hash, nil)] = e
			}
		}
	}
	i := s.free(h, m)
	if i < 0 {
		return false
	}
	s.table[i] = sigSlot{hash: h, m: m}
	s.n++
	return true
}

// free returns the free slot a match hashing to h belongs in, or -1 when the
// table already holds m's edge set. A nil m is not looked for.
func (s *sigSet) free(h uint64, m *match.Match) int {
	mask := uint64(len(s.table) - 1)
	i := h & mask
	for ; s.table[i].m != nil; i = (i + 1) & mask {
		if e := s.table[i]; m != nil && e.hash == h && e.m.SameEdges(m) {
			return -1
		}
	}
	return int(i)
}

// reset empties the set for its owner to add back the n matches a prune
// kept, on the table it has unless that would now be mostly empty.
func (s *sigSet) reset(n int) {
	if len(s.table) > 8 && 8*n < len(s.table) {
		s.table = make([]sigSlot, max(8, 1<<bits.Len(uint(2*n))))
	} else {
		clear(s.table)
	}
	s.n = 0
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
	es := m.EdgeSet()
	sealed := s.gens[:len(s.gens)-1]
	for i := range sealed {
		g := &sealed[i]
		if m.Span.Start > g.maxStart || m.Span.End > g.maxEnd {
			continue
		}
		if _, found := g.find(h, es); found {
			return false
		}
	}
	if !s.gens[len(sealed)].insert(h, es, m.Span.Start, m.Span.End) {
		return false
	}
	s.n++
	return true
}

// insert records the binding es, hashing to h, of a match with the given
// span bounds, unless the generation holds it already.
func (g *generation) insert(h uint64, es []uint64, start, end graph.Timestamp) bool {
	if 4*(g.n+1) > 3*len(g.table) {
		g.grow()
	}
	i, found := g.find(h, es)
	if found {
		return false
	}
	ref, words := g.store(es)
	g.table[i] = completeSlot{hash: h, ref: ref, words: words}
	if g.n == 0 {
		g.maxStart, g.maxEnd = start, end
	}
	g.maxStart, g.maxEnd = max(g.maxStart, start), max(g.maxEnd, end)
	g.n++
	return true
}

// merge adds every entry of o that s does not hold, a generation of o at a
// time. The entries carry no span of their own, so they go where they are
// sure to outlive their window: into the generation of s that is dropped
// first among those dropped no sooner than o would have dropped them, or a
// new one when s has none — which is how merging into an empty set copies
// o's ring. o is left as it was.
func (s *completeSet) merge(o *completeSet) {
	for oi := range o.gens {
		og := &o.gens[oi]
		if og.n == 0 {
			continue
		}
		at := -1
		for i := range s.gens {
			if g := &s.gens[i]; g.n > 0 && g.maxStart >= og.maxStart && (at < 0 || g.maxStart < s.gens[at].maxStart) {
				at = i
			}
		}
		if at < 0 {
			if at = len(s.gens) - 1; at < 0 || s.gens[at].n > 0 {
				s.open()
				at++
			}
		}
	entries:
		for _, e := range og.table {
			if e.ref == 0 {
				continue
			}
			es := og.words(e)
			for i := range s.gens {
				if g := &s.gens[i]; i != at && g.n > 0 {
					if _, found := g.find(e.hash, es); found {
						continue entries
					}
				}
			}
			if s.gens[at].insert(e.hash, es, og.maxStart, og.maxEnd) {
				s.n++
			}
		}
	}
}

// find probes the table for the binding es: the slot holding it, or the
// empty slot where it belongs. The table must have a free slot.
func (g *generation) find(h uint64, es []uint64) (slot uint64, found bool) {
	mask := uint64(len(g.table) - 1)
	i := h & mask
	for ; g.table[i].ref != 0; i = (i + 1) & mask {
		if e := g.table[i]; e.hash == h && slices.Equal(g.words(e), es) {
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

// store copies the binding es into the arena, moving on to the next chunk
// — a kept one when it fits, else a new one — when the current one cannot
// hold it. A binding wider than a whole chunk gets one of its own.
func (g *generation) store(es []uint64) (ref, words uint32) {
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
