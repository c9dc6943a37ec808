package core

import (
	"fmt"
	"strings"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/mqo"
)

// Metrics is a snapshot of engine counters. Obtain one with Engine.Metrics.
type Metrics struct {
	// EdgesProcessed is the number of stream edges admitted into the graph.
	EdgesProcessed uint64
	// EdgesDropped counts edges rejected for timestamp regression beyond the
	// slack or duplicate IDs.
	EdgesDropped uint64
	// MatchesEmitted is the total number of complete matches across queries.
	MatchesEmitted uint64
	// LocalSearches is the total number of primitive local searches run,
	// each shared leaf's once (MQO.LocalSearches).
	LocalSearches uint64
	// PartialMatches is the number of matches currently stored across the
	// DAG's node collections, each once, roots included (MQO.PartialMatches;
	// a memory-pressure proxy).
	PartialMatches int
	// PartialsPruned is the cumulative number of partial matches discarded
	// because they could no longer complete within their query windows.
	PartialsPruned uint64
	// PruneRuns is the number of pruning sweeps executed.
	PruneRuns uint64
	// EmittedEvicted is the cumulative number of entries the queries'
	// exactly-once sets have forgotten because their matches started below
	// the expiry cutoff and can never be derived again (summed over shards
	// on a sharded engine). The sets' current size is per query, below.
	EmittedEvicted uint64
	// DedupEntries and DedupBytes size the shard merger's duplicate filter as
	// it stands; zero on a single engine, which has no merger.
	DedupEntries int
	DedupBytes   int
	// Registrations is the number of currently registered (active) queries;
	// unregistering a query decreases it, keeping the snapshot truthful for
	// long-lived multi-tenant servers.
	Registrations uint64
	// Replans is the cumulative number of adaptive plan hot-swaps across all
	// registrations; ReplanChecks counts drift evaluations (a check costs a
	// trial decomposition per adaptive query, a replan additionally replays
	// the retained window), and ReplanEdgesReplayed is the total volume of
	// that replay work.
	Replans             uint64
	ReplanChecks        uint64
	ReplanEdgesReplayed uint64
	// LiveEdges / LiveVertices describe the current dynamic graph size.
	LiveEdges    int
	LiveVertices int
	// ExpiredEdges is the number of edges evicted from the sliding window.
	ExpiredEdges uint64
	// Queries holds per-registration detail.
	Queries []QueryMetrics
	// MQO is the evaluation DAG's snapshot, the one place per-node
	// statistics live. Per-node stats are keyed by canonical signature, so
	// sharded front-ends aggregate them with mqo.MergeStats.
	MQO mqo.Stats
}

// QueryMetrics is the per-registration portion of a metrics snapshot.
type QueryMetrics struct {
	Name     string
	Strategy decompose.Strategy
	Matches  uint64
	// PartialMatches and LocalSearches are the query's view of the DAG: the
	// matches stored in its plan's non-root nodes and the searches of its
	// leaves, shared nodes counted once per query viewing them
	// (mqo.Attachment.PartialMatches, LeafSearches).
	PartialMatches int
	LocalSearches  uint64
	// Plan detail: Adaptive reports whether the registration opted into
	// re-planning, PlanGeneration is the running plan's generation (1 = the
	// registration-time plan; sharded engines report the maximum across
	// shards), Replans counts completed hot-swaps (summed across shards),
	// and PlanNodes/PlanDepth describe the current plan's shape.
	Adaptive       bool
	PlanGeneration uint64
	Replans        uint64
	PlanNodes      int
	PlanDepth      int
	// EmittedEntries and EmittedBytes size the query's exactly-once emitted
	// set as it stands (summed over shards on a sharded engine): little more
	// than one retention of matches, at 16 bytes per table slot and 8 per
	// arena word (sjtree.EmittedSet.Bytes). A consumer group has one set:
	// its first query in registration order reports it, the others zero, so
	// the sum over queries is what is resident.
	EmittedEntries int
	EmittedBytes   int
	// LastReplanAudit is the most recent adaptive drift-check record
	// (fired or declined), nil until the first check runs.
	LastReplanAudit *ReplanAudit
}

// String renders the snapshot as a small fixed-width report.
func (m Metrics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "edges=%d dropped=%d matches=%d partials=%d localSearches=%d liveEdges=%d liveVertices=%d expired=%d replans=%d\n",
		m.EdgesProcessed, m.EdgesDropped, m.MatchesEmitted, m.PartialMatches,
		m.LocalSearches, m.LiveEdges, m.LiveVertices, m.ExpiredEdges, m.Replans)
	fmt.Fprintf(&sb, "  mqo: nodes=%d shared=%d sharedHits=%d attachments=%d\n",
		m.MQO.Nodes, m.MQO.SharedNodes, m.MQO.SharedHits, m.MQO.Attachments)
	for _, q := range m.Queries {
		fmt.Fprintf(&sb, "  %-24s strategy=%-10s matches=%-8d partials=%-8d searches=%-8d plan=gen%d/replans%d\n",
			q.Name, q.Strategy, q.Matches, q.PartialMatches, q.LocalSearches, q.PlanGeneration, q.Replans)
	}
	return sb.String()
}
