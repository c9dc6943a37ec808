package sjtree

import (
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
// this set lives for the tree's lifetime and only ever grows, so it keeps
// nothing but each match's dense edge binding (match.EdgeSet), packed
// into a chunked word arena, behind a flat open-addressed table of
// (hash, arena reference) slots probed linearly. An add allocates only when
// the table doubles or a chunk fills. The zero value is an empty set.
type completeSet struct {
	table  []completeSlot // power-of-two length, or nil
	n      int
	chunks [][]uint64
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
	arenaChunkBits = 13
	arenaFirstBits = 6
)

// add records m's edge set, returning false when already present.
func (s *completeSet) add(m *match.Match) bool { return s.addHashed(m.EdgeSetHash(), m) }

// addHashed is add with the hash supplied by the caller (tests inject
// colliding hashes): equal hashes are told apart by comparing the stored
// words, so a collision can never drop a genuine match.
func (s *completeSet) addHashed(h uint64, m *match.Match) bool {
	if 4*(s.n+1) > 3*len(s.table) {
		s.grow()
	}
	mask := uint64(len(s.table) - 1)
	i := h & mask
	for ; s.table[i].ref != 0; i = (i + 1) & mask {
		if e := s.table[i]; e.hash == h && m.SameEdgeSet(s.words(e)) {
			return false
		}
	}
	ref, words := s.store(m)
	s.table[i] = completeSlot{hash: h, ref: ref, words: words}
	s.n++
	return true
}

// words returns the arena words of one slot's binding.
func (s *completeSet) words(e completeSlot) []uint64 {
	at := e.ref - 1
	off := at & (1<<arenaChunkBits - 1)
	return s.chunks[at>>arenaChunkBits][off : off+e.words]
}

// store copies m's edge binding into the arena, opening a new chunk when
// the current one cannot hold it: entries never straddle chunks, and a
// binding wider than a whole chunk gets one of its own.
func (s *completeSet) store(m *match.Match) (ref, words uint32) {
	es := m.EdgeSet()
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last])+len(es) > cap(s.chunks[last]) {
		size := 1 << arenaChunkBits
		if len(s.chunks) < arenaChunkBits-arenaFirstBits {
			size = 1 << (arenaFirstBits + len(s.chunks))
		}
		s.chunks = append(s.chunks, make([]uint64, 0, max(size, len(es))))
		last++
	}
	off := len(s.chunks[last])
	s.chunks[last] = append(s.chunks[last], es...)
	return uint32(last<<arenaChunkBits+off) + 1, uint32(len(es))
}

// grow doubles the table and reinserts every slot by its stored hash; the
// arena is untouched.
func (s *completeSet) grow() {
	old := s.table
	s.table = make([]completeSlot, max(2*len(old), 8))
	mask := uint64(len(s.table) - 1)
	for _, e := range old {
		if e.ref == 0 {
			continue
		}
		i := e.hash & mask
		for s.table[i].ref != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = e
	}
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
