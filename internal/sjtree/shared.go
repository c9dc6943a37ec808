package sjtree

import (
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
)

// This file exports the exactly-once half of the SJ-Tree's match storage. The
// shared-plan evaluation DAG (internal/mqo) keeps its partial matches as rows
// of its own; each group of queries reading a DAG root alike keeps one
// EmittedSet.

// EmittedSet deduplicates emitted complete matches by edge binding — the
// per-consumer half of acceptComplete, split out so a shared DAG root can
// fan a complete match out to many queries through one exactly-once set per
// consumer group.
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
