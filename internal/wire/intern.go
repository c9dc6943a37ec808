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
	// attrWays is how many attribute maps share a set: a block hashes to
	// one of attrSets sets and may sit in any of its ways.
	attrWays = 8
	attrSets = internSlots / attrWays
	// attrRecent is the size of the recent front: the maps of the last
	// blocks that missed, whether or not the sets took them.
	attrRecent = 4
	// internMaxLen is the longest encoding an Interner caches, so what its
	// slots retain stays bounded: internSlots strings of at most
	// internMaxLen bytes, and internSlots+attrRecent maps decoded from blocks
	// of at most internMaxLen bytes.
	internMaxLen = 64
)

// Interner is a bounded cache of what a stream's payloads repeat: type,
// query and variable names, attribute keys and values, and whole attribute
// maps. A string hashes to a set of two slots, the most recently used first:
// a hit in the second slot swaps it forward, and a miss replaces the second
// slot and swaps it forward, so two hot names that share a set both stay.
// A string hit compares the bytes with the cached string.
//
// Attribute maps are held so that a scan of blocks seen once cannot flush
// the hot ones. A block hashes to one of 64 sets of 8 ways, kept least
// recently used last. A block that misses fills the oldest entry of a
// 4-entry recent front, checked before the sets, so a block repeated on a
// few consecutive edges (an article's publication time) is served from
// there. It enters its set, in place of the set's least recently used map,
// only on its second miss: a table of block hashes, no maps, remembers the
// first, 512 hashes in 256 sets of two, the most recent first, so two
// blocks that share a set and miss in turn both keep their record. An entry keeps the block's hash and its map, no
// copy of its bytes: whether in the front or a set, a hit is confirmed by
// walking the block against the cached map's entries, so a hash collision
// costs a miss, never a wrong map, and a hit allocates nothing. Encodings
// longer than internMaxLen bytes are decoded without it.
//
// What it returns is shared by every decode that hits the same entry: an
// attribute map from an Interner must not be mutated (the graph's contract
// for attribute maps already forbids it). What is unique to a match report —
// its signature, bindings and edge IDs — is carved from the Interner's 8 KiB
// slab chunks (internal/slab), which a retained report keeps alive. Create
// one with NewInterner; it is not safe for concurrent use. A nil *Interner
// caches nothing and carves nothing.
type Interner struct {
	seed  maphash.Seed
	strs  [internSlots / 2][2]string
	attrs [attrSets][attrWays]internedAttrs // each set most recently used first
	// recent holds the last attrRecent misses; next is the one the next
	// miss replaces.
	recent [attrRecent]internedAttrs
	next   int
	// missed holds, by hash, the hashes of blocks that have missed, each
	// set most recent first: a block found here on a miss has missed before
	// and enters its set.
	missed [internSlots / 2][2]uint64

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

// cachedAttrs returns the map cached for enc, a validated non-empty block
// with hash h, or nil: the recent front first, then h's set, where a hit
// becomes the most recently used.
func (in *Interner) cachedAttrs(enc []byte, h uint64) graph.Attributes {
	for i := range in.recent {
		if e := &in.recent[i]; e.hash == h && holds(enc, e.attrs) {
			return e.attrs
		}
	}
	set := &in.attrs[h%attrSets]
	for i := range set {
		if e := set[i]; e.hash == h && holds(enc, e.attrs) {
			copy(set[1:i+1], set[:i])
			set[0] = e
			return e.attrs
		}
	}
	return nil
}

// missedAttrs records that the block with hash h missed and decoded to a:
// a fills the oldest entry of the recent front, and on the block's second
// miss also takes the least recently used way of its set.
func (in *Interner) missedAttrs(h uint64, a graph.Attributes) {
	e := internedAttrs{hash: h, attrs: a}
	in.recent[in.next] = e
	in.next = (in.next + 1) % attrRecent
	if seen := &in.missed[h%(internSlots/2)]; seen[0] != h {
		first := seen[1] != h
		seen[0], seen[1] = h, seen[0]
		if first {
			return
		}
	}
	set := &in.attrs[h%attrSets]
	copy(set[1:], set[:attrWays-1])
	set[0] = e
}
