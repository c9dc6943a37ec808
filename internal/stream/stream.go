// Package stream holds what composes an edge stream out of slices of
// timestamped stream edges: the batch (one time step of the paper's
// formulation), time ordering, and time-ordered merging. Workload
// generators (internal/gen) build their streams with it; a stream is read
// by handing each edge to the engine in order (core.Engine.ProcessEdge),
// and a JSON Lines document by loader.DecodeJSONL.
package stream

import (
	"sort"

	"github.com/streamworks/streamworks/internal/graph"
)

// Batch is a group of stream edges delivered together, corresponding to one
// time step E(k+1) in the paper's formulation: the incremental result of a
// continuous query is defined per batch of newly arrived edges.
type Batch struct {
	// Edges are the batch members in arrival order.
	Edges []graph.StreamEdge
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
