package graph

// fifo is the dynamic graph's expiry queue: edge handles in timestamp order
// (up to the ingest slack). The live entries are buf[head:]; the dead prefix
// buf[:head] and the spare tail buf[len:cap] hold stale handles, which is
// harmless: handles are not pointers, and nothing reads them.
type fifo struct {
	buf  []int32
	head int
}

func (f *fifo) len() int { return len(f.buf) - f.head }

// live returns the entries in order.
func (f *fifo) live() []int32 { return f.buf[f.head:] }

// push appends h. A full queue compacts in place once its dead prefix is at
// least an eighth of it, and otherwise moves into a larger array
// (grownCap); either way each entry is copied O(1) times on average.
func (f *fifo) push(h int32) {
	if len(f.buf) == cap(f.buf) {
		live := f.buf[f.head:]
		if f.head == 0 || f.head < cap(f.buf)/8 {
			f.buf = make([]int32, 0, grownCap(cap(f.buf)))
		}
		f.buf = append(f.buf[:0], live...)
		f.head = 0
	}
	f.buf = append(f.buf, h)
}

// popFront removes the oldest entry.
func (f *fifo) popFront() { f.head++ }

// grownCap is the capacity a full array of capacity c moves to: twice c (or
// 2) up to 512, and a quarter more beyond, as append grows a large slice: a
// window just past a power of two does not double the queue.
func grownCap(c int) int {
	if c < 512 {
		return max(2, 2*c)
	}
	return c + c/4
}
