package sjtree

import (
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
)

// This file exports the SJ-Tree's match-storage machinery in a form the
// shared-plan evaluation DAG (internal/mqo) can use for nodes owned by
// multiple parents. A private Tree wires collection, partition and emitted
// set to exactly one parent each; a shared DAG node keeps one Collection
// (its canonical match set, the one place a partial is stored) plus one
// Partition per parent link indexing the same matches, and each group of
// queries reading a root alike keeps one EmittedSet — so every query is
// sent what a private tree would emit while the matches are computed,
// stored and remembered once.

// Collection is a deduplicated set of matches of one subpattern: the
// Property-3 match collection of a DAG node, without a fixed parent. It
// dedups on the cached 64-bit edge-set hash with an equality check, the
// same identity (and the same sigSet) a private tree node uses.
type Collection struct {
	stored   []*match.Match
	sigs     sigSet
	inserted uint64
	pruned   uint64
}

// NewCollection returns an empty collection.
func NewCollection() *Collection { return &Collection{} }

// Add records m, returning false (set unchanged) when an equal edge set is
// already stored.
func (c *Collection) Add(m *match.Match) bool {
	if !c.sigs.add(m) {
		return false
	}
	c.stored = append(c.stored, m)
	c.inserted++
	return true
}

// Stored returns the live matches. The slice is owned by the collection —
// callers iterate it, they do not retain or mutate it.
func (c *Collection) Stored() []*match.Match { return c.stored }

// Len returns the number of live matches.
func (c *Collection) Len() int { return len(c.stored) }

// InsertedTotal returns the cumulative number of distinct matches ever added.
func (c *Collection) InsertedTotal() uint64 { return c.inserted }

// PrunedTotal returns the cumulative number of matches pruned.
func (c *Collection) PrunedTotal() uint64 { return c.pruned }

// PruneWhere removes every stored match for which drop returns true and
// returns how many were removed.
func (c *Collection) PruneWhere(drop func(*match.Match) bool) int {
	kept := c.stored[:0]
	for _, m := range c.stored {
		if !drop(m) {
			kept = append(kept, m)
		}
	}
	removed := len(c.stored) - len(kept)
	if removed == 0 {
		return 0
	}
	clear(c.stored[len(kept):])
	c.stored = kept
	c.sigs.reset(len(kept))
	for _, m := range kept {
		c.sigs.add(m)
	}
	c.pruned += uint64(removed)
	return removed
}

// Partition hash-partitions matches by their projection onto a fixed cut
// vertex set (Property 4), so a sibling join is a map lookup. A shared DAG
// node owns one Partition per parent link, each keyed on that parent's cut;
// unlike a Collection it neither deduplicates nor owns — its entries are
// the matches of an already-deduplicated collection, by pointer.
type Partition struct {
	buckets map[match.ProjectionKey][]*match.Match
}

// NewPartition returns an empty partition.
func NewPartition() *Partition {
	return &Partition{buckets: make(map[match.ProjectionKey][]*match.Match)}
}

// Add indexes m under key.
func (p *Partition) Add(key match.ProjectionKey, m *match.Match) {
	p.buckets[key] = append(p.buckets[key], m)
}

// Probe returns the matches indexed under key. The slice is owned by the
// partition — iterate, do not retain.
func (p *Partition) Probe(key match.ProjectionKey) []*match.Match {
	return p.buckets[key]
}

// Partitions returns the number of live projection buckets — the fan-out of
// a sibling join probe.
func (p *Partition) Partitions() int { return len(p.buckets) }

// PruneWhere removes every indexed match for which drop returns true. The
// owning collection counts what it prunes; the index does not.
func (p *Partition) PruneWhere(drop func(*match.Match) bool) {
	// Map order is harmless: drop is a pure predicate, so each match is kept
	// or removed on its own.
	for key, list := range p.buckets {
		kept := list[:0]
		for _, m := range list {
			if !drop(m) {
				kept = append(kept, m)
			}
		}
		clear(list[len(kept):]) // do not pin what the collection dropped
		if len(kept) == 0 {
			delete(p.buckets, key)
		} else {
			p.buckets[key] = kept
		}
	}
}

// EmittedSet deduplicates emitted complete matches by edge binding — the
// per-consumer half of acceptComplete, split out so a shared DAG root can
// fan a complete match out to many queries through one exactly-once set per
// consumer group, and so the shard merger can keep one per query.
// Entries are compact edge-binding copies that expire with the window; see
// completeSet.
type EmittedSet struct {
	set   completeSet
	total uint64
}

// NewEmittedSet returns an empty set.
func NewEmittedSet() *EmittedSet { return &EmittedSet{} }

// Add records m's edge set, returning false when it was already emitted.
func (s *EmittedSet) Add(m *match.Match) bool {
	if !s.set.add(m) {
		return false
	}
	s.total++
	return true
}

// Merge adds to s every match o remembers and s does not, leaving o as it
// was: a query that moves between consumer groups of the shared DAG takes
// what it has been sent along. Total counts Add calls and does not move.
func (s *EmittedSet) Merge(o *EmittedSet) { s.set.merge(&o.set) }

// Expire forgets the matches that can never be derived again: those whose
// Span.Start is below cutoff, the engine's expiry bound
// (graph.ExpiryCutoff), a generation at a time — an entry may outlive the
// cutoff by a fraction of the retention. It returns how many entries went.
// A cutoff that has not advanced, as under unbounded retention, is a no-op.
func (s *EmittedSet) Expire(cutoff graph.Timestamp, retention time.Duration) int {
	return s.set.expire(cutoff, retention)
}

// Len returns the number of entries held now.
func (s *EmittedSet) Len() int { return s.set.n }

// Bytes estimates the set's resident size: 16 bytes per table slot plus 8
// per arena word, at capacity, spare tables and chunks included.
func (s *EmittedSet) Bytes() int { return s.set.bytes() }

// Total returns the cumulative number of distinct matches recorded.
func (s *EmittedSet) Total() uint64 { return s.total }
