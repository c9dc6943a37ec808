package slab

import (
	"testing"
	"unsafe"
)

// TestCarvingsNeverOverlap: consecutive carvings of one chunk are disjoint,
// zeroed and adjacent, and a chunk that cannot hold the next request is
// replaced by a fresh one.
func TestCarvingsNeverOverlap(t *testing.T) {
	var s Slab[uint64]
	per := chunkBytes / 8
	var prev []uint64
	for i := 0; i < 3*per/7; i++ {
		v := s.Make(7)
		if len(v) != 7 || cap(v) != 7 {
			t.Fatalf("carving %d has len %d cap %d, want 7 and 7", i, len(v), cap(v))
		}
		for j, w := range v {
			if w != 0 {
				t.Fatalf("carving %d word %d is %d, want zero", i, j, w)
			}
			v[j] = uint64(i)
		}
		if prev != nil {
			if prev[6] != uint64(i-1) {
				t.Fatalf("carving %d overwrote carving %d", i, i-1)
			}
			a, b := uintptr(unsafe.Pointer(&prev[0])), uintptr(unsafe.Pointer(&v[0]))
			if b < a+7*8 && a < b+7*8 {
				t.Fatalf("carvings %d and %d overlap", i-1, i)
			}
		}
		prev = v
	}
}

// TestAppendLeavesTheNextCarvingIntact: a holder appending to its carving
// gets a new array; the neighbour carved after it keeps its values.
func TestAppendLeavesTheNextCarvingIntact(t *testing.T) {
	var s Slab[int]
	a := s.Make(2)
	b := s.Make(2)
	b[0], b[1] = 7, 8
	a = append(a, 99)
	a[0] = 1
	if b[0] != 7 || b[1] != 8 {
		t.Fatalf("appending to one carving changed the next: %v", b)
	}
	if len(a) != 3 || a[2] != 99 {
		t.Fatalf("append result %v", a)
	}
}

// TestOversizeRequestKeepsTheChunk: a request larger than a chunk gets its
// own array, and the next small request continues the current chunk.
func TestOversizeRequestKeepsTheChunk(t *testing.T) {
	var s Slab[byte]
	a := s.Make(10)
	big := s.Make(chunkBytes + 1)
	if len(big) != chunkBytes+1 {
		t.Fatalf("oversize carving has %d bytes", len(big))
	}
	b := s.Make(10)
	if unsafe.Pointer(&b[0]) != unsafe.Add(unsafe.Pointer(&a[0]), 10) {
		t.Fatal("the oversize request discarded the current chunk")
	}
	if z := s.Make(0); z == nil || len(z) != 0 {
		t.Fatalf("Make(0) = %#v, want an empty non-nil slice", z)
	}
}

// TestStringsRoundTrip: Copy returns the bytes it was given, unaffected by
// later writes to the source, and the empty string for none.
func TestStringsRoundTrip(t *testing.T) {
	var s Strings
	src := []byte("0:11,1:12,2:13")
	got := s.Copy(src)
	src[0] = 'x'
	if got != "0:11,1:12,2:13" {
		t.Fatalf("Copy = %q", got)
	}
	if next := s.Copy([]byte("abc")); next != "abc" || got != "0:11,1:12,2:13" {
		t.Fatalf("second Copy = %q, first now %q", next, got)
	}
	if s.Copy(nil) != "" {
		t.Fatal("Copy(nil) is not empty")
	}
	long := make([]byte, 3*chunkBytes)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	if s.Copy(long) != string(long) {
		t.Fatal("an oversize string did not round-trip")
	}
}
