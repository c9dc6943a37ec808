// Package stream provides the edge-stream substrate the continuous engine
// consumes: sources that yield timestamped stream edges, the batch (one time
// step of the paper's formulation), replay, and time-ordered merging.
// Workload generators (internal/gen) and file loaders (internal/loader)
// produce Sources; the engine and the ingest path consume them.
package stream

import (
	"errors"
	"io"
	"sort"

	"github.com/streamworks/streamworks/internal/graph"
)

// Source yields stream edges in arrival order. Next returns io.EOF when the
// stream is exhausted. Implementations need not be safe for concurrent use.
type Source interface {
	Next() (graph.StreamEdge, error)
}

// ErrStopped is returned by replay helpers when the consumer callback asks
// to stop early.
var ErrStopped = errors.New("stream: stopped by consumer")

// SliceSource replays a fixed slice of stream edges.
type SliceSource struct {
	edges []graph.StreamEdge
	pos   int
}

// NewSliceSource builds a source over the given edges. The slice is not
// copied; callers must not mutate it while the source is in use.
func NewSliceSource(edges []graph.StreamEdge) *SliceSource {
	return &SliceSource{edges: edges}
}

// Next implements Source.
func (s *SliceSource) Next() (graph.StreamEdge, error) {
	if s.pos >= len(s.edges) {
		return graph.StreamEdge{}, io.EOF
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}

// Reset rewinds the source to the beginning, allowing a second replay.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of edges in the source.
func (s *SliceSource) Len() int { return len(s.edges) }

// FuncSource adapts a generator function into a Source.
type FuncSource func() (graph.StreamEdge, error)

// Next implements Source.
func (f FuncSource) Next() (graph.StreamEdge, error) { return f() }

// Batch is a group of stream edges delivered together, corresponding to one
// time step E(k+1) in the paper's formulation: the incremental result of a
// continuous query is defined per batch of newly arrived edges.
type Batch struct {
	// Edges are the batch members in arrival order.
	Edges []graph.StreamEdge
}

// Replay drains the source, invoking fn for each edge. fn returning false
// stops the replay with ErrStopped. It returns the number of edges consumed.
func Replay(src Source, fn func(graph.StreamEdge) bool) (int, error) {
	count := 0
	for {
		e, err := src.Next()
		if errors.Is(err, io.EOF) {
			return count, nil
		}
		if err != nil {
			return count, err
		}
		count++
		if !fn(e) {
			return count, ErrStopped
		}
	}
}

// SortByTimestamp orders the edges by timestamp (stable on ties, preserving
// generation order) so that generators composing several event sources can
// emit a single time-ordered stream.
func SortByTimestamp(edges []graph.StreamEdge) {
	sort.SliceStable(edges, func(i, j int) bool {
		return edges[i].Edge.Timestamp < edges[j].Edge.Timestamp
	})
}

// Merge combines multiple already-sorted edge slices into one time-ordered
// slice with a k-way merge instead of re-sorting the concatenation. Ties keep
// the order of the argument list, then generation order within each slice,
// matching what SortByTimestamp over the concatenation produces. Each output
// edge costs one scan of the k stream heads: k is the handful of event
// sources a generator composes, where that beats maintaining a heap.
func Merge(streams ...[]graph.StreamEdge) []graph.StreamEdge {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]graph.StreamEdge, 0, total)
	heads := make([]int, len(streams)) // next unmerged index of each stream
	for len(out) < total {
		best := -1
		for i, s := range streams {
			if heads[i] == len(s) {
				continue
			}
			if best < 0 || s[heads[i]].Edge.Timestamp < streams[best][heads[best]].Edge.Timestamp {
				best = i
			}
		}
		out = append(out, streams[best][heads[best]])
		heads[best]++
	}
	return out
}
