package shard

import (
	"sync"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/sjtree"
)

// dedup is the merge-side duplicate filter: replicated edges let the same
// complete match surface on several shards, and each occurrence carries the
// same canonical identity — the query name plus the exact pattern-edge →
// data-edge binding. Only the first occurrence passes. It keeps, per query,
// the same set of compact edge bindings an engine keeps of its own
// emissions (sjtree.EmittedSet): admitting a match allocates nothing, pins
// no *match.Match, and a hash collision can never suppress a genuine match.
//
// Entries expire by the engines' own rule — a match whose Span.Start is
// below the expiry cutoff is dead — with the cutoff taken from the minimum
// shard watermark the merger has observed through progress marks
// (graph.ExpiryCutoff explains the extra slack). A shard first derives a
// match while it processes the match's last edge, which its watermark then
// trails by at most the slack, and a match fits the retention; what a plan
// swap or backfill derives again, the shard's own emitted set — evicted by
// the same rule, against an older cutoff — still suppresses; and the merge
// channel preserves each shard's send order. So once every shard's observed
// watermark has passed Start(M)+retention+slack, every duplicate of M has
// already been received, however far any mailbox lags. (A window-less query
// can emit a match wider than the retention, from a partial the next prune
// sweep would have removed; such a match is outside the guarantee.) With
// unbounded retention the cutoff never moves and nothing is evicted.
type dedup struct {
	mu        sync.Mutex
	seen      map[string]*sjtree.EmittedSet // admitted matches per query
	cutoff    graph.Timestamp
	retention time.Duration // grows with registered query windows
	slack     time.Duration
}

func newDedup(retention, slack time.Duration) *dedup {
	return &dedup{
		seen:      make(map[string]*sjtree.EmittedSet),
		cutoff:    graph.NoCutoff,
		retention: retention,
		slack:     slack,
	}
}

// noteWindow widens the eviction horizon to cover a registered query window
// (the per-shard engines widen their retention the same way).
func (d *dedup) noteWindow(w time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.retention != 0 && w > d.retention {
		d.retention = w
	}
}

// admit reports whether ev is the first occurrence of its match.
func (d *dedup) admit(ev core.MatchEvent) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	set := d.seen[ev.Query]
	if set == nil {
		set = sjtree.NewEmittedSet()
		d.seen[ev.Query] = set
	}
	return set.Add(ev.Match)
}

// expire evicts the entries whose matches can no longer be rediscovered,
// given the minimum watermark the merger has observed across all shards.
// Cheap to call at every progress mark: a cutoff that has not moved is
// turned away before any set is touched.
func (d *dedup) expire(minShardWM graph.Timestamp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cutoff := graph.ExpiryCutoff(d.cutoff, minShardWM, d.retention, d.slack)
	if cutoff == d.cutoff {
		return
	}
	d.cutoff = cutoff
	for _, set := range d.seen {
		set.Expire(cutoff, d.retention)
	}
}

// stats returns the deduplication counters: unique matches passed through,
// duplicates suppressed, and unique matches per query.
func (d *dedup) stats() (unique, dups uint64, perQuery map[string]uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	perQuery = make(map[string]uint64, len(d.seen))
	for name, set := range d.seen {
		perQuery[name] = set.Total()
		unique += set.Total()
		dups += set.DuplicateDrops()
	}
	return unique, dups, perQuery
}

// size returns how many entries the filter holds and their estimated bytes.
func (d *dedup) size() (entries, bytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, set := range d.seen {
		entries += set.Len()
		bytes += set.Bytes()
	}
	return entries, bytes
}
