package core

import (
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
)

// Metrics is a view of engine counters: each field tagged with a metric is
// that series, read from a registry snapshot by FillMetrics; the rest
// describes the plans. Obtain one with Engine.Metrics.
type Metrics struct {
	// EdgesProcessed is the number of stream edges admitted into the graph.
	EdgesProcessed uint64 `metric:"edges_processed"`
	// EdgesDropped counts edges dropped as late, by graph.Clock's rule, or
	// for a duplicate ID.
	EdgesDropped uint64 `metric:"edges_dropped"`
	// MatchesEmitted is the total number of complete matches across queries.
	MatchesEmitted uint64 `metric:"matches_detected"`
	// LocalSearches is the total number of primitive local searches run,
	// each shared leaf's once (MQO.LocalSearches).
	LocalSearches uint64 `metric:"mqo_local_searches"`
	// PartialMatches is the number of matches currently stored across the
	// DAG's node collections, each once (MQO.PartialMatches; a
	// memory-pressure proxy). A root no join reads stores none, so its
	// complete matches are not counted.
	PartialMatches int `metric:"partials_stored"`
	// PartialsPruned is the cumulative number of stored partial matches
	// discarded because they could no longer complete within their query
	// windows.
	PartialsPruned uint64 `metric:"partials_pruned"`
	// PruneRuns is the number of pruning sweeps executed.
	PruneRuns uint64 `metric:"prune_runs"`
	// Registrations is the number of currently registered (active) queries;
	// unregistering a query decreases it, keeping the snapshot truthful for
	// long-lived multi-tenant servers.
	Registrations uint64
	// LiveEdges / LiveVertices describe the current dynamic graph size.
	LiveEdges    int `metric:"live_edges"`
	LiveVertices int `metric:"live_vertices"`
	// ExpiredEdges is the number of edges evicted from the sliding window.
	ExpiredEdges uint64 `metric:"expired_edges"`
	// Queries holds per-registration detail.
	Queries []QueryMetrics
	// MQO is the evaluation DAG's snapshot, the one place per-node
	// statistics live. Per-node stats are keyed by canonical signature.
	MQO mqo.Stats
}

// QueryMetrics is the per-registration portion of a metrics snapshot.
type QueryMetrics struct {
	Name     string
	Strategy decompose.Strategy
	Matches  uint64 `metric:"query_matches_detected"`
	// PartialMatches and LocalSearches are the query's view of the DAG: the
	// matches stored in its plan's non-root nodes and the searches of its
	// leaves, shared nodes counted once per query viewing them
	// (mqo.Attachment.PartialMatches, LeafSearches).
	PartialMatches int
	LocalSearches  uint64
	// PlanNodes/PlanDepth describe the shape of the plan the query was
	// registered with, which it keeps.
	PlanNodes int
	PlanDepth int
}

// FillMetrics sets every count of m — the engine totals, the DAG's and each
// listed query's own — from a registry snapshot of the engine.
func FillMetrics(m *Metrics, s obs.Snapshot) {
	obs.Fill(m, s, "")
	obs.Fill(&m.MQO, s, "")
	for i := range m.Queries {
		obs.Fill(&m.Queries[i], s, m.Queries[i].Name)
	}
}
