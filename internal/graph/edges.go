package graph

import "math/bits"

// Edge records are addressed by dense int32 handles: handle h is slot
// h&chunkMask of chunk h>>chunkBits. A chunk holds 256 records of 56 B,
// 14 KiB, one runtime size class.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// records stores edge records in fixed chunks that never move, so a *Edge
// stays valid while its handle is held. A handle names its edge from alloc
// until the dynamic graph's expiry queue passes it, which removes the edge
// and releases the handle for reuse. The chunks are kept up to the peak
// number of handles held at once.
type records struct {
	chunks []*[chunkSize]Edge
	free   []int32 // released handles, reused last in, first out
	n      int32   // handles ever handed out: the next fresh one
}

// at returns the record of handle h.
func (r *records) at(h int32) *Edge { return &r.chunks[h>>chunkBits][h&chunkMask] }

// alloc returns a handle whose record holds e.
func (r *records) alloc(e Edge) int32 {
	var h int32
	if n := len(r.free); n > 0 {
		h, r.free = r.free[n-1], r.free[:n-1]
	} else {
		h = r.n
		r.n++
		if int(h>>chunkBits) == len(r.chunks) {
			r.chunks = append(r.chunks, new([chunkSize]Edge))
		}
	}
	*r.at(h) = e
	return h
}

// release makes the handle of a removed edge available for a new one.
func (r *records) release(h int32) { r.free = append(r.free, h) }

// idTable maps each live edge ID to its handle: open addressing with linear
// probing, at most half full. A slot holds handle+1, zero when empty; the key
// is read from the record, so the table holds no pointer and no ID. Deletion
// shifts the rest of the probe chain back, so there are no tombstones. The
// table only grows, doubling: it is kept at the peak window.
type idTable struct {
	slots []int32
	n     int
	shift uint8 // 64 − log2(len(slots))
}

const minTableSlots = 16

// home is the slot where the probe for id starts (Fibonacci hashing).
func (t *idTable) home(id EdgeID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the handle of id, or -1.
func (t *idTable) find(r *records, id EdgeID) int32 {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if r.at(s-1).ID == id {
			return s - 1
		}
	}
}

// insert files handle h under its record's ID, which must not be in the
// table.
func (t *idTable) insert(r *records, h int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow(r)
	}
	t.place(r.at(h).ID, h+1)
	t.n++
}

func (t *idTable) place(id EdgeID, s int32) {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

func (t *idTable) grow(r *records) {
	old := t.slots
	size := max(minTableSlots, 2*len(old))
	t.slots = make([]int32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s != 0 {
			t.place(r.at(s-1).ID, s)
		}
	}
}

// delete removes id, which must be in the table, and returns its handle.
// Each later entry of the probe chain whose home is not cyclically in
// (hole, entry] moves back into the hole, which then moves to it.
func (t *idTable) delete(r *records, id EdgeID) int32 {
	mask := len(t.slots) - 1
	hole := t.home(id)
	for r.at(t.slots[hole]-1).ID != id {
		hole = (hole + 1) & mask
	}
	h := t.slots[hole] - 1
	for j := (hole + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if k := t.home(r.at(t.slots[j] - 1).ID); (j-k)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
	t.n--
	return h
}
