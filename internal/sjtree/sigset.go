package sjtree

import (
	"math/bits"
	"slices"

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

// EmittedSet deduplicates a Tree's emitted complete matches by edge binding:
// the exactly-once half of acceptComplete, kept as compact edge-binding
// copies (completeSet). The zero value is an empty set.
type EmittedSet struct {
	set   completeSet
	total uint64
}

// Add records m's edge set, returning false when it was already emitted.
func (s *EmittedSet) Add(m *match.Match) bool {
	if !s.set.add(m) {
		return false
	}
	s.total++
	return true
}

// Total returns the cumulative number of distinct matches recorded.
func (s *EmittedSet) Total() uint64 { return s.total }

// completeSet deduplicates emitted complete matches by edge binding. Unlike
// sigSet — whose entries are the very matches the node stores and removes —
// it keeps nothing but each match's dense edge binding (match.EdgeSet),
// packed into a chunked word arena, behind a flat open-addressed table of
// (hash, arena reference) slots probed linearly. It only grows, and an add
// allocates only when the table doubles or the arena needs one more chunk.
// The zero value is an empty set.
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
	// doubling from 64 words so a small set does not pin a full chunk. A
	// 32-bit ref addresses 32 GiB of bindings. Each size is handed out
	// arenaChunksPerSize times before the next, so a chunk only just begun
	// is under a quarter of an arena past 8 KiB, not half of it: capacity
	// follows what is stored in small steps.
	arenaChunkBits     = 13
	arenaFirstBits     = 6
	arenaChunksPerSize = 4
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
	es := m.EdgeSet()
	i, found := s.find(h, es)
	if found {
		return false
	}
	ref, words := s.store(es)
	s.table[i] = completeSlot{hash: h, ref: ref, words: words}
	s.n++
	return true
}

// find probes the table for the binding es: the slot holding it, or the
// empty slot where it belongs. The table must have a free slot.
func (s *completeSet) find(h uint64, es []uint64) (slot uint64, found bool) {
	mask := uint64(len(s.table) - 1)
	i := h & mask
	for ; s.table[i].ref != 0; i = (i + 1) & mask {
		if e := s.table[i]; e.hash == h && slices.Equal(s.words(e), es) {
			return i, true
		}
	}
	return i, false
}

// words returns the arena words of one slot's binding.
func (s *completeSet) words(e completeSlot) []uint64 {
	at := e.ref - 1
	off := at & (1<<arenaChunkBits - 1)
	return s.chunks[at>>arenaChunkBits][off : off+e.words]
}

// store copies the binding es into the arena, starting a new chunk when the
// last one cannot hold it: entries never straddle chunks, nor end past what
// a ref's offset bits address. A binding wider than a whole chunk gets one
// of its own.
func (s *completeSet) store(es []uint64) (ref, words uint32) {
	if last := len(s.chunks) - 1; last < 0 || len(s.chunks[last])+len(es) > min(cap(s.chunks[last]), 1<<arenaChunkBits) {
		size := 1 << arenaChunkBits
		if bits := arenaFirstBits + len(s.chunks)/arenaChunksPerSize; bits < arenaChunkBits {
			size = 1 << bits
		}
		s.chunks = append(s.chunks, make([]uint64, 0, max(size, len(es))))
	}
	last := len(s.chunks) - 1
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
