// Package slab bump-allocates small immutable values from shared 8 KiB
// chunks, so a stream of them costs one allocation per chunk instead of one
// per value.
//
// A chunk is never reused: the goroutine that owns a Slab carves values from
// it front to back and starts a fresh chunk when the current one cannot hold
// the next request. The GC frees a chunk once nothing carved from it is
// referenced, so there is no release protocol and a holder may keep what it
// was given for as long as it likes — at the price of keeping the whole
// chunk alive. Holders that outlive a stream's window copy what they keep.
//
// 8 KiB is one runtime size class, so a chunk wastes nothing to rounding. A
// request larger than a chunk gets an allocation of its own and leaves the
// current chunk in place.
package slab

import "unsafe"

// chunkBytes is the size of every chunk.
const chunkBytes = 8 << 10

// Slab carves slices of T from chunks of 8 KiB. The zero value is ready to
// use, and a nil *Slab allocates every request on its own; a Slab is not
// safe for concurrent use.
type Slab[T any] struct {
	free []T // the uncarved tail of the current chunk
}

// Make returns n zero values of T, never nil, as make([]T, n) does. The
// slice's capacity is n, so appending to it reallocates instead of
// overwriting the next carving.
func (s *Slab[T]) Make(n int) []T {
	if n == 0 {
		return []T{}
	}
	if s == nil {
		return make([]T, n)
	}
	if n > len(s.free) {
		var zero T
		per := chunkBytes / max(1, int(unsafe.Sizeof(zero)))
		if n > per {
			return make([]T, n)
		}
		s.free = make([]T, per)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

// Strings carves strings from byte chunks. The zero value is ready to use,
// and a nil *Strings allocates every string on its own; Strings is not safe
// for concurrent use.
type Strings struct{ b Slab[byte] }

// Copy returns string(b), its bytes carved from the current chunk.
func (s *Strings) Copy(b []byte) string {
	if s == nil || len(b) == 0 {
		return string(b)
	}
	c := s.b.Make(len(b))
	copy(c, b)
	return unsafe.String(&c[0], len(c))
}
