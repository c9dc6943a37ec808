package graph

import "math/bits"

// Records are addressed by dense int32 handles: handle h is slot
// h&chunkMask of chunk h>>chunkBits. A chunk of 256 48-B edge records is
// 12 KiB, one runtime size class.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunks stores records in fixed chunks of 256 that never move, so a pointer
// to a record stays valid while its handle is held. A handle names its
// record from alloc until release, which makes it available for reuse; the
// chunks are kept up to the peak number of handles held at once.
type chunks[R any, P record[R]] struct {
	chunks []*[chunkSize]R
	free   int32 // handle+1 atop a stack threaded through the released records
	n      int32 // handles ever handed out: the next fresh one
}

// record is a pointer to a record whose freeLink a released one lends the
// free stack, holding handle+1 of the one below it: a released edge is on no
// incidence list and a released vertex has no type. Release allocates none.
type record[R any] interface {
	*R
	freeLink() *int32
}

// at returns the record of handle h.
func (c *chunks[R, P]) at(h int32) *R { return &c.chunks[h>>chunkBits][h&chunkMask] }

// alloc returns a handle for the caller to fill in: a released one when
// there is one, a fresh one, and so a zero record, otherwise.
func (c *chunks[R, P]) alloc() int32 {
	if h := c.free - 1; h >= 0 {
		c.free = *P(c.at(h)).freeLink()
		return h
	}
	h := c.n
	c.n++
	if int(h>>chunkBits) == len(c.chunks) {
		c.chunks = append(c.chunks, new([chunkSize]R))
	}
	return h
}

// release makes handle h available for a new record.
func (c *chunks[R, P]) release(h int32) { *P(c.at(h)).freeLink(), c.free = c.free, h+1 }

// edgeRecord is an edge as the window stores it, 48 B: its endpoints are
// vertex handles and its type an index into the graph's type table. next
// threads the incidence lists through the records: next[dirOut] is
// handle+1 of the edge after it in its source's out-list, next[dirIn] of the
// one after it in its target's in-list, and 0 ends a list. later threads the
// Dynamic's expiry queue the same way, in timestamp order.
type edgeRecord struct {
	id       EdgeID
	ts       Timestamp
	attrs    Attributes
	src, dst int32
	typ      int32
	next     [2]int32
	later    int32
}

// The two directions of incidence, indexing edgeRecord.next and
// vertexRecord.lists.
const (
	dirOut = 0
	dirIn  = 1
)

// chain is a vertex's out- or in-list, threaded through the edge records in
// arrival order: first and last are handle+1 of its ends, 0 when empty.
type chain struct{ first, last int32 }

// vertexRecord is a vertex, 40 B: its ID and attributes, its two incidence
// lists and the type table index of its type. A chunk of 256 is 10 KiB, one
// runtime size class.
type vertexRecord struct {
	id    VertexID
	attrs Attributes
	lists [2]chain
	typ   int32
}

func (r *edgeRecord) freeLink() *int32   { return &r.next[dirOut] }
func (r *vertexRecord) freeLink() *int32 { return &r.typ }

type edgeRecords struct {
	chunks[edgeRecord, *edgeRecord]
}

func (r *edgeRecords) key(h int32) uint64 { return uint64(r.at(h).id) }

type vertexRecords struct {
	chunks[vertexRecord, *vertexRecord]
}

func (r *vertexRecords) key(h int32) uint64 { return uint64(r.at(h).id) }

// keyer reads the ID of the record of a handle: the key an idTable files
// the handle under.
type keyer interface{ key(h int32) uint64 }

// idTable maps each live edge or vertex ID to its record's handle: open
// addressing with linear probing, at most half full. A slot holds handle+1,
// zero when empty; the key is read from the record, so the table holds no
// pointer and no ID. Deletion shifts the rest of the probe chain back, so
// there are no tombstones. The table only grows, doubling: it is kept at the
// peak window.
type idTable struct {
	slots []int32
	n     int
	shift uint8 // 64 − log2(len(slots))
}

const minTableSlots = 16

// home is the slot where the probe for id starts (Fibonacci hashing).
func (t *idTable) home(id uint64) int {
	return int(id * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the handle of id, or -1.
func (t *idTable) find(k keyer, id uint64) int32 {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if k.key(s-1) == id {
			return s - 1
		}
	}
}

// insert files handle h under its record's ID, which must not be in the
// table.
func (t *idTable) insert(k keyer, h int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow(k)
	}
	t.place(k.key(h), h+1)
	t.n++
}

func (t *idTable) place(id uint64, s int32) {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

func (t *idTable) grow(k keyer) {
	old := t.slots
	size := max(minTableSlots, 2*len(old))
	t.slots = make([]int32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s != 0 {
			t.place(k.key(s-1), s)
		}
	}
}

// delete removes id, which must be in the table, and returns its handle.
// Each later entry of the probe chain whose home is not cyclically in
// (hole, entry] moves back into the hole, which then moves to it.
func (t *idTable) delete(k keyer, id uint64) int32 {
	mask := len(t.slots) - 1
	hole := t.home(id)
	for k.key(t.slots[hole]-1) != id {
		hole = (hole + 1) & mask
	}
	h := t.slots[hole] - 1
	for j := (hole + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if i := t.home(k.key(t.slots[j] - 1)); (j-i)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
	t.n--
	return h
}

// typeTable interns the edge and vertex types of the window: index i names
// names[i], and vertices[i] and edges[i] count the window's vertices and
// edges of that type. An index whose two counts are both 0 is freed and
// reused, so the table is bounded by the types live in the window.
type typeTable struct {
	names    []string
	index    map[string]int32
	vertices []int
	edges    []int
	free     []int32 // freed indexes, reused last in, first out
}

// intern returns the index of name, adding it with zero counts if absent.
func (t *typeTable) intern(name string) int32 {
	if i, ok := t.index[name]; ok {
		return i
	}
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
		t.names[i] = name
	} else {
		i = int32(len(t.names))
		t.names = append(t.names, name)
		t.vertices = append(t.vertices, 0)
		t.edges = append(t.edges, 0)
	}
	if t.index == nil {
		t.index = make(map[string]int32)
	}
	t.index[name] = i
	return i
}

// drop frees index i once nothing in the window has its type.
func (t *typeTable) drop(i int32) {
	if t.vertices[i] == 0 && t.edges[i] == 0 {
		delete(t.index, t.names[i])
		t.names[i] = ""
		t.free = append(t.free, i)
	}
}

// count returns counts' entry for type name, 0 when the type is not live.
func (t *typeTable) count(counts []int, name string) int {
	if i, ok := t.index[name]; ok {
		return counts[i]
	}
	return 0
}
