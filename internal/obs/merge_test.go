package obs

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestMergeEqualsSingleRegistry is the cross-shard merge property test: the
// same stream of observations, split across N shard-local registries written
// from N goroutines, must merge into exactly the snapshot a single registry
// produces when fed every observation. Run under -race this also proves the
// write/snapshot paths are race-clean.
func TestMergeEqualsSingleRegistry(t *testing.T) {
	const shards = 7
	const observations = 20_000
	rng := rand.New(rand.NewSource(42))

	type obsRecord struct {
		shard   int
		segment string
		value   int64
		counter bool
	}
	segments := []string{SegIngestQueueWait, SegShardMailbox, SegLocalSearch, SegDAGJoin, SegDispatch, SegHTTPFlush}
	records := make([]obsRecord, observations)
	for i := range records {
		records[i] = obsRecord{
			shard:   rng.Intn(shards),
			segment: segments[rng.Intn(len(segments))],
			value:   rng.Int63n(1 << 30),
			counter: rng.Intn(4) == 0,
		}
	}

	// Reference: one registry, all observations.
	single := NewRegistry()
	for _, rec := range records {
		if rec.counter {
			single.Counter("events", "segment", rec.segment).Inc()
		} else {
			single.Segment(rec.segment).Observe(rec.value)
		}
	}

	// Shard-local registries written concurrently (each goroutine owns its
	// registry, like shard workers do), snapshotted from the main goroutine
	// while a late writer is still running to exercise the atomic reads.
	locals := make([]*Registry, shards)
	for i := range locals {
		locals[i] = NewRegistry()
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, rec := range records {
				if rec.shard != s {
					continue
				}
				if rec.counter {
					locals[s].Counter("events", "segment", rec.segment).Inc()
				} else {
					locals[s].Segment(rec.segment).Observe(rec.value)
				}
			}
		}(s)
	}
	// Concurrent snapshot: result is discarded, it only has to be safe.
	for i := 0; i < 10; i++ {
		snaps := make([]Snapshot, shards)
		for s := range locals {
			snaps[s] = locals[s].Snapshot()
		}
		_ = Merge(snaps...)
	}
	wg.Wait()

	snaps := make([]Snapshot, shards)
	for s := range locals {
		snaps[s] = locals[s].Snapshot()
	}
	merged := Merge(snaps...)
	want := single.Snapshot()

	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged snapshot differs from single-registry snapshot:\nmerged: %+v\nwant:   %+v", merged, want)
	}
}

func TestMergeSumsSeries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("edges", "", "").Add(3)
	b.Counter("edges", "", "").Add(4)
	a.Segment(SegLocalSearch).Observe(10)
	b.Segment(SegLocalSearch).ObserveN(10, 2)
	m := Merge(a.Snapshot(), b.Snapshot())
	if c := m.Counter("edges", ""); c != 7 {
		t.Fatalf("merged counter = %d, want 7", c)
	}
	h, ok := m.Find(SegmentHistogramName, SegLocalSearch)
	if !ok || h.Count != 3 || h.Sum != 30 {
		t.Fatalf("merged histogram = %+v, ok=%v", h, ok)
	}
	if h.Mean != 10 {
		t.Fatalf("merged mean = %v, want 10", h.Mean)
	}
	// Merging an empty snapshot is the identity.
	m2 := Merge(m, Snapshot{})
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("merge with empty snapshot changed the result")
	}
}

// TestMergeSumsGauges: a gauge here is a size owned by one worker, so the
// workers' gauges add up to the engine's; a nil registry hands out inert
// gauges like it does counters.
func TestMergeSumsGauges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Gauge("query_rows", QueryLabelKey, "q").Set(40)
	b.Gauge("query_rows", QueryLabelKey, "q").Set(2)
	b.Gauge("live_edges", "", "").Set(5)
	merged := Merge(a.Snapshot(), b.Snapshot())
	if g := merged.Gauge("query_rows", "q"); g != 42 {
		t.Fatalf("merged per-query gauge = %d, want 42", g)
	}
	if g := merged.Gauge("live_edges", ""); g != 5 {
		t.Fatalf("merged unlabelled gauge = %d, want 5", g)
	}
	if g := merged.Gauge("live_edges", "q"); g != 0 {
		t.Fatalf("absent series = %d, want 0", g)
	}
	var none *Registry
	g := none.Gauge("x", "", "")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("a nil gauge kept a value")
	}
}
