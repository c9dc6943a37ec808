package shard

import (
	"sync"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
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
//
// The filter counts what it admits, overall and per query, and sizes itself
// in the front-end's registry: the sharded engine's post-dedup view.
type dedup struct {
	mu        sync.Mutex
	seen      map[string]*dedupQuery
	cutoff    graph.Timestamp
	retention time.Duration // grows with registered query windows
	slack     time.Duration

	reg            *obs.Registry
	matches        *obs.Counter
	entries, bytes *obs.Gauge
}

// dedupQuery is one query's admitted matches and their count.
type dedupQuery struct {
	set     *sjtree.EmittedSet
	matches *obs.Counter
}

func newDedup(retention, slack time.Duration, reg *obs.Registry) *dedup {
	return &dedup{
		seen:      make(map[string]*dedupQuery),
		cutoff:    graph.NoCutoff,
		retention: retention,
		slack:     slack,
		reg:       reg,
		matches:   reg.Counter("matches_emitted", "", ""),
		entries:   reg.Gauge("dedup_entries", "", ""),
		bytes:     reg.Gauge("dedup_bytes", "", ""),
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
	q := d.seen[ev.Query]
	if q == nil {
		q = &dedupQuery{sjtree.NewEmittedSet(), d.reg.Counter("query_matches_emitted", obs.QueryLabelKey, ev.Query)}
		d.seen[ev.Query] = q
	}
	if !q.set.Add(ev.Match) {
		return false
	}
	q.matches.Inc()
	d.matches.Inc()
	return true
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
	for _, q := range d.seen {
		q.set.Expire(cutoff, d.retention)
	}
}

// refresh sets the filter's size gauges: how many entries it holds and their
// estimated bytes.
func (d *dedup) refresh() {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, bytes := 0, 0
	for _, q := range d.seen {
		entries += q.set.Len()
		bytes += q.set.Bytes()
	}
	d.entries.Set(int64(entries))
	d.bytes.Set(int64(bytes))
}
