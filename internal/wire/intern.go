package wire

import (
	"hash/maphash"

	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/slab"
)

const (
	// internSlots is the number of strings, in sets of two, and separately
	// of attribute maps, one Interner holds.
	internSlots = 512
	// internMaxLen is the longest encoding an Interner caches, so what its
	// slots retain stays bounded: internSlots strings of at most
	// internMaxLen bytes, and internSlots maps decoded from blocks of at most
	// internMaxLen bytes.
	internMaxLen = 64
)

// Interner is a bounded cache of what a stream's payloads repeat: type,
// query and variable names, attribute keys and values, and whole attribute
// maps. A string hashes to a set of two slots, the most recently used first:
// a hit in the second slot swaps it forward, and a miss replaces the second
// slot and swaps it forward, so two hot names that share a set both stay.
// A string hit compares the bytes with the cached string. Attribute maps are
// direct-mapped: a block hashes to one slot, and a different block hashing
// to the same slot replaces it. An attribute slot keeps the block's hash and
// its map, no copy of its bytes: a hit is confirmed by walking the block
// against the cached map's entries, and allocates nothing. Encodings longer
// than internMaxLen bytes are decoded without it.
//
// What it returns is shared by every decode that hits the same slot: an
// attribute map from an Interner must not be mutated (the graph's contract
// for attribute maps already forbids it). What is unique to a match report —
// its signature, bindings and edge IDs — is carved from the Interner's 8 KiB
// slab chunks (internal/slab), which a retained report keeps alive. Create
// one with NewInterner; it is not safe for concurrent use. A nil *Interner
// caches nothing and carves nothing.
type Interner struct {
	seed  maphash.Seed
	strs  [internSlots / 2][2]string
	attrs [internSlots]internedAttrs

	sigs     slab.Strings
	bindings slab.Slab[export.Binding]
	edgeIDs  slab.Slab[uint64]
}

// internedAttrs is an attribute map under the hash of the block it decoded
// from.
type internedAttrs struct {
	hash  uint64
	attrs graph.Attributes
}

// NewInterner returns an empty Interner with a seed of its own.
func NewInterner() *Interner { return &Interner{seed: maphash.MakeSeed()} }

// reportSlabs returns the slabs in carves match reports from: nils, which
// allocate, for a nil in.
func (in *Interner) reportSlabs() (*slab.Strings, *slab.Slab[export.Binding], *slab.Slab[uint64]) {
	if in == nil {
		return nil, nil, nil
	}
	return &in.sigs, &in.bindings, &in.edgeIDs
}

func (in *Interner) hash(enc []byte) uint64 { return maphash.Bytes(in.seed, enc) }

// string returns string(b), without allocating when in already holds it.
func (in *Interner) string(b []byte) string {
	if in == nil || len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	set := &in.strs[in.hash(b)%(internSlots/2)]
	switch {
	case set[0] == string(b):
	case set[1] == string(b):
		set[0], set[1] = set[1], set[0]
	default:
		set[0], set[1] = string(b), set[0]
	}
	return set[0]
}
