package graph

import "math/bits"

// fifo is a list of edges in arrival order: an incidence list, or the
// dynamic graph's expiry queue. The live entries are buf[head:]; the dead
// prefix buf[:head] and the spare tail buf[len:cap] hold nil, so a list
// keeps no removed edge alive.
//
// Edges leave a window in about the order they arrived, so removal is cheap
// where it is common: the oldest edge goes in O(1) by moving head, one a few
// slots in by shifting the short prefix before it, and one near the end by
// shifting the short suffix after it.
type fifo struct {
	buf  []*Edge
	head int
}

func (f *fifo) len() int { return len(f.buf) - f.head }

// live returns the entries in arrival order.
func (f *fifo) live() []*Edge { return f.buf[f.head:] }

// push appends e. A full list compacts in place once its dead prefix is at
// least an eighth of it, and otherwise moves into a larger array (grownCap),
// recycling the old one; either way each entry is copied O(1) times on
// average.
func (f *fifo) push(e *Edge, sp *spares) {
	if len(f.buf) == cap(f.buf) {
		if f.head > 0 && f.head >= cap(f.buf)/8 {
			n := copy(f.buf, f.buf[f.head:])
			clear(f.buf[n:])
			f.buf = f.buf[:n]
		} else {
			grown := append(sp.take(grownCap(cap(f.buf))), f.buf[f.head:]...)
			sp.recycle(f.buf)
			f.buf = grown
		}
		f.head = 0
	}
	f.buf = append(f.buf, e)
}

// popFront removes the oldest entry.
func (f *fifo) popFront() {
	f.buf[f.head] = nil
	f.head++
}

// remove takes e out of the list, keeping the others in order. It scans
// from both ends at once and shifts the shorter side over the gap.
func (f *fifo) remove(e *Edge) {
	i, j := f.head, len(f.buf)-1
	for ; i <= j && f.buf[i] != e; i++ {
		if f.buf[j] == e {
			copy(f.buf[j:], f.buf[j+1:])
			f.buf[len(f.buf)-1] = nil
			f.buf = f.buf[:len(f.buf)-1]
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

// spares holds cleared arrays for fifos, by power-of-two capacity: class c
// holds arrays of capacity 2<<c.
type spares [spareClasses][][]*Edge

// take returns an empty array of capacity n: a spare when its class has
// one, a new one otherwise.
func (s *spares) take(n int) []*Edge {
	if c := spareClass(n); c >= 0 && len(s[c]) > 0 {
		last := len(s[c]) - 1
		list := s[c][last]
		s[c] = s[c][:last]
		return list
	}
	return make([]*Edge, 0, n)
}

// recycle clears an array nothing refers to any more and keeps it while its
// class has room. Cleared, it holds no dead edge alive.
func (s *spares) recycle(list []*Edge) {
	c := spareClass(cap(list))
	if c < 0 || len(s[c]) == sparesPerClass {
		return
	}
	clear(list[:cap(list)])
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
