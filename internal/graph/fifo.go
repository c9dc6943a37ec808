package graph

import "math/bits"

// fifo is a list of edge handles in arrival order: an incidence list, or the
// dynamic graph's expiry queue. The live entries are buf[head:]; the dead
// prefix buf[:head] and the spare tail buf[len:cap] hold stale handles,
// which is harmless: handles are not pointers, and nothing reads them.
//
// Edges leave a window in about the order they arrived, so removal is cheap
// where it is common: the oldest edge goes in O(1) by moving head, one a few
// slots in by shifting the short prefix before it, and one near the end by
// shifting the short suffix after it.
type fifo struct {
	buf  []int32
	head int
}

func (f *fifo) len() int { return len(f.buf) - f.head }

// live returns the entries in arrival order.
func (f *fifo) live() []int32 { return f.buf[f.head:] }

// push appends h. A full list compacts in place once its dead prefix is at
// least an eighth of it, and otherwise moves into a larger array (grownCap),
// recycling the old one; either way each entry is copied O(1) times on
// average.
func (f *fifo) push(h int32, sp *spares) {
	if len(f.buf) == cap(f.buf) {
		if f.head > 0 && f.head >= cap(f.buf)/8 {
			f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		} else {
			grown := append(sp.take(grownCap(cap(f.buf))), f.buf[f.head:]...)
			sp.recycle(f.buf)
			f.buf = grown
		}
		f.head = 0
	}
	f.buf = append(f.buf, h)
}

// popFront removes the oldest entry.
func (f *fifo) popFront() { f.head++ }

// remove takes h out of the list, keeping the others in order. It scans
// from both ends at once and shifts the shorter side over the gap.
func (f *fifo) remove(h int32) {
	i, j := f.head, len(f.buf)-1
	for ; i <= j && f.buf[i] != h; i++ {
		if f.buf[j] == h {
			f.buf = f.buf[:j+copy(f.buf[j:], f.buf[j+1:])]
			return
		}
		j--
	}
	if i > j {
		panic("graph: edge missing from its incidence list")
	}
	copy(f.buf[f.head+1:i+1], f.buf[f.head:i])
	f.popFront()
}

// grownCap is the capacity a full array of capacity c moves to: twice c (or
// 2) up to 512, the powers of two the spare classes keep, and a quarter more
// beyond, as append grows a large slice. The expiry queue is that large: a
// window just past a power of two does not double it.
func grownCap(c int) int {
	if c < 2<<spareClasses {
		return max(2, 2*c)
	}
	return c + c/4
}

// spares holds emptied arrays for fifos, by power-of-two capacity: class c
// holds arrays of capacity 2<<c.
type spares [spareClasses][][]int32

// take returns an empty array of capacity n: a spare when its class has
// one, a new one otherwise.
func (s *spares) take(n int) []int32 {
	if c := spareClass(n); c >= 0 && len(s[c]) > 0 {
		last := len(s[c]) - 1
		list := s[c][last]
		s[c] = s[c][:last]
		return list
	}
	return make([]int32, 0, n)
}

// recycle keeps an array nothing refers to any more while its class has
// room.
func (s *spares) recycle(list []int32) {
	c := spareClass(cap(list))
	if c < 0 || len(s[c]) == sparesPerClass {
		return
	}
	s[c] = append(s[c], list[:0])
}

// spareClass is the spare class of a capacity (a power of two up to 256, as
// grownCap makes them), or -1 when arrays of that capacity are not kept.
func spareClass(capacity int) int {
	if c := bits.Len(uint(capacity)) - 2; c >= 0 && c < spareClasses {
		return c
	}
	return -1
}
