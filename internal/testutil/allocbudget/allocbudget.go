// Package allocbudget is the checked-in table of allocation budgets for the
// emit/dedup layer, the delivery slabs, the DAG's partial rows and joins, the
// window graph, the planner statistics, local search, the wire codec, the
// WAL's batch appends and emission notes, and a one-shard engine's delivery
// and metrics: a ceiling on heap allocations per call for each named
// operation, enforced by blocking unit tests next to the code they
// measure (the first instalment of the ROADMAP's deterministic-counter gate). The
// counts repeat exactly from run to run, so a test fails on the first
// allocation over budget; raising a ceiling is a reviewed change to this
// file, not to the test that tripped.
package allocbudget

import (
	"runtime"
	"testing"
)

// ceilings maps an operation to its maximum allocations per call.
var ceilings = map[string]float64{
	// internal/match: a match is one heap object, a signature one string.
	// A delivered match and its signature are carved from an Arena's 8 KiB
	// slab chunks: nothing per match but a chunk now and then.
	"match.Signature":        1,
	"match.Clone":            1,
	"match.Join":             1,
	"match.Arena.RemapSlots": 0,
	"match.Arena.Signature":  0,
	// internal/sjtree: the emitted set allocates only when its table
	// doubles or an arena chunk fills — nothing per add, amortised — and
	// refusing a match it already holds allocates nothing at all.
	"sjtree.EmittedSet.Add":           0,
	"sjtree.EmittedSet.Add/duplicate": 0,
	// internal/export: BuildReport allocates the bindings and the edge-ID
	// list; the signature arrives on the event. Three when the report has to
	// build it. The 25
	// reports of one match fanned out to a consumer group share both slices,
	// which a Reporter carves from its 8 KiB slab chunks: the whole group
	// allocates nothing.
	"export.BuildReport":                2,
	"export.BuildReport/unsigned":       3,
	"export.Reporter/25-consumer group": 0,
	// internal/mqo: one root row fanned out to a group of 25 queries is one
	// match built in query space and one Signature, whatever the group's
	// size, both carved from the DAG's arena: nothing per match. A root no
	// join reads delivers its row and keeps nothing. Every partial below a
	// root is a row: appended to its node's arena, chained under its cut
	// key in each parent link's index, joined into the parent's scratch.
	// Storing one under a new cut key, storing the row a join produced, and
	// the leaf search that finds one allocate nothing but the amortised
	// growth of arenas and tables.
	"mqo.deliver/25-consumers":                              0,
	"mqo.insert/parentless root, delivered":                 0,
	"mqo.insert/stored partial, one parent, no sibling hit": 0,
	"mqo.insert/joined partial":                             0,
	"mqo.ProcessEdge/leaf search, no join":                  0,
	// internal/wire: attribute keys are sorted on the stack, so an edge with
	// all three attribute maps populated encodes into a grown buffer for
	// free, and so does a match.
	"wire.AppendEdge":  0,
	"wire.AppendMatch": 0,
	// The envelope's header is written in place and its CRC patched in, and
	// a Reader keeps its header scratch in itself: framing a payload and
	// reading a frame back cost nothing once the buffers have grown.
	"wire.AppendEdgeFrame":  0,
	"wire.AppendMatchFrame": 0,
	"wire.Reader.Next":      0,
	// An ingest session answers each sync with an ack frame: encoding one
	// into grown buffers, and decoding one without an error string, is free.
	"wire.AppendAckFrame": 0,
	"wire.DecodeAck":      0,
	// A warm interner returns a repeated edge's three type names and three
	// attribute maps without decoding them, and carves a match report's
	// signature, bindings and edge IDs from its 8 KiB slab chunks.
	"wire.Interner.DecodeEdge/warm":  0,
	"wire.Interner.DecodeMatch/warm": 0,
	// A block the interner has not seen costs its map (two allocations for
	// one entry) and nothing more: an entry keeps the map and the block's
	// hash, and a hit is checked against the map's entries, so no copy of
	// the block's bytes is stored.
	"wire.Interner.DecodeEdge/new attribute block": 2,
	// Two hot names that hash to one slot share its set of two, so a stream
	// alternating between them misses on neither.
	"wire.Interner.DecodeEdge/two types sharing a slot": 0,
	// A block repeated on consecutive edges (an article's publication time)
	// is served from the recent front after its first decode, and a scan of
	// such blocks leaves the hot ones in their sets: a block enters a set
	// only on its second miss.
	"wire.Interner.DecodeEdge/one-shot block repeated": 0,
	"wire.Interner.DecodeEdge/hot block after a scan":  0,
	// internal/graph: once a window has turned over, applying an edge that
	// expires one and brings back a vertex that went isolated runs on
	// recycled records, and the returned edge is held by the Dynamic.
	"graph.Dynamic.Apply/steady-state window": 0,
	// Incidence lists are chains through the edge records, so a vertex
	// that leaves and comes back with a list longer than 16 takes no memory
	// for it. Counted exactly (CheckExact) over a stream of Zipf-skewed
	// host degrees.
	"graph.Dynamic.Apply/skewed host churn": 0,
	// Drawn fresh, it keeps setting new highs of free handles, which cost none.
	"graph.Dynamic.Apply/skewed host churn, drawn fresh": 0,
	// A vertex attribute that repeats is found covered and not merged, a NaN
	// too: values compare by their payload bits.
	"graph.Dynamic.Apply/repeated NaN attribute": 0,
	// internal/stats: the statistics are the window graph's, so observing an
	// edge records the graph, and reading a triad count from a window that
	// has not changed since the last read looks it up.
	"stats.Summary.Observe":                         0,
	"stats.Summary.TriadFrequency/unchanged window": 0,
	// internal/isomorphism: the search binds in place, so closing a cycle
	// through an existing edge costs nothing.
	"isomorphism.extend/closing edge": 0,
	// internal/wal: a batch goes to the manager's one long-lived appender
	// on a channel, its outcome comes back on another and the barrier is a
	// func value built once, so the hand-off allocates nothing; the batch
	// goes to the log through two reused buffers, so neither does any edge
	// nor the frame around the batch.
	"wal.AppendEdges/512-edge batch": 0,
	// A noted match's key is built in reused scratch and looked up without
	// a copy: a duplicate allocates nothing, and a new key is carved from
	// the manager's 8 KiB slab chunks — nothing per key but a chunk and the
	// emitted set's growth now and then.
	"wal.Manager.NoteEmitted/new key":   0,
	"wal.Manager.NoteEmitted/duplicate": 0,
	// internal/shard: a lone shard owns every match, so delivering one is
	// the delivery lock and the sink call, with nothing looked up or
	// counted on the way.
	"shard.worker.deliver/one shard": 0,
	// The root package: a one-shard engine's Metrics is its engine's own
	// view — one registry snapshot filled into it, no per-shard fold or
	// merge — on the four netflow queries of the metrics golden.
	"streamworks.Sharded.Metrics/one shard": 16,
}

// Runs is how many times Check measures f, after one warm-up call: a test
// that needs a fresh input per call prepares Runs+1 of them.
const Runs = 500

// Check fails t when f allocates more per call than op's ceiling.
func Check(t *testing.T, op string, f func()) {
	t.Helper()
	ceiling := ceilingOf(t, op)
	if got := testing.AllocsPerRun(Runs, f); got > ceiling {
		t.Errorf("%s: %.0f allocs per call, budget %.0f", op, got, ceiling)
	}
}

// CheckExact fails t when f allocates more than op's ceiling per call,
// counted exactly over runs calls after one warm-up call. Check's mean is
// rounded down, so it passes a few allocations spread over many calls;
// CheckExact does not.
func CheckExact(t *testing.T, op string, runs int, f func()) {
	t.Helper()
	ceiling := ceilingOf(t, op)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; float64(got) > ceiling*float64(runs) {
		t.Errorf("%s: %d allocs in %d calls, budget %.0f per call", op, got, runs, ceiling)
	}
}

func ceilingOf(t *testing.T, op string) float64 {
	t.Helper()
	ceiling, ok := ceilings[op]
	if !ok {
		t.Fatalf("allocbudget: no ceiling for %q", op)
	}
	return ceiling
}
