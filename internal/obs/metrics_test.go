package obs

import (
	"math"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("edges", "", "")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if again := r.Counter("edges", "", ""); again != c {
		t.Fatalf("Counter not deduplicated by key")
	}
	if other := r.Counter("edges", "kind", "dropped"); other == c {
		t.Fatalf("distinct labels must yield distinct counters")
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "", "")
	h := r.Histogram("x", "", "")
	c.Add(1) // must not panic
	h.Observe(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter reported a value")
	}
	if (Snapshot{}).Counters != nil {
		t.Fatalf("zero snapshot not empty")
	}
	_ = (*Registry)(nil).Snapshot()
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(1)  // bucket 1: [1,2)
	h.Observe(3)  // bucket 2: [2,4)
	h.Observe(-7) // clamped to 0
	h.ObserveN(1024, 3)
	s := snapshotOf(h, "lat", "", "")
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if s.Sum != 0+1+3+0+3*1024 {
		t.Fatalf("Sum = %d", s.Sum)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[2] != 1 || s.Buckets[11] != 3 {
		t.Fatalf("bucket layout wrong: %v", s.Buckets)
	}
	if s.Mean == 0 || s.P50 == 0 {
		t.Fatalf("summary not filled: %+v", s)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := &Histogram{}
	h.Observe(math.MaxInt64)
	s := snapshotOf(h, "lat", "", "")
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("overflow observation not in last bucket: %v", s.Buckets)
	}
}

func TestQuantileEstimates(t *testing.T) {
	h := &Histogram{}
	// 100 observations of ~1µs and 100 of ~1ms: p50 must sit in the low
	// group's neighborhood, p99 in the high group's bucket [2^19, 2^20).
	for i := 0; i < 100; i++ {
		h.Observe(1000)
		h.Observe(1_000_000)
	}
	s := snapshotOf(h, "lat", "", "")
	if s.P50 < 512 || s.P50 > 2048 {
		t.Fatalf("P50 = %v, want ~1µs", s.P50)
	}
	if s.P99 < float64(1<<19) || s.P99 > float64(1<<21) {
		t.Fatalf("P99 = %v, want ~1ms bucket", s.P99)
	}
	if got := s.Mean; got != float64(1000+1_000_000)/2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Segment(SegLocalSearch).Observe(5)
	r.Segment(SegDAGJoin).Observe(5)
	r.Histogram(DetectLagHistogramName, "", "").Observe(1)
	r.Counter("b_counter", "", "").Inc()
	r.Counter("a_counter", "", "").Inc()
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_counter" {
		t.Fatalf("counters unsorted: %+v", s.Counters)
	}
	wantH := []string{DetectLagHistogramName, SegmentHistogramName, SegmentHistogramName}
	for i, h := range s.Histograms {
		if h.Name != wantH[i] {
			t.Fatalf("histogram %d = %s, want %s", i, h.Name, wantH[i])
		}
	}
	if s.Histograms[1].LabelValue != SegDAGJoin || s.Histograms[2].LabelValue != SegLocalSearch {
		t.Fatalf("segment labels unsorted: %+v", s.Histograms)
	}
}

func TestConfigNormalized(t *testing.T) {
	// Counts are kept whether or not observability is on; only the clock
	// (and with it every latency histogram) is off.
	if c := (Config{Clock: SystemClock}).Normalized(); c.Registry == nil || c.Clock != nil {
		t.Fatalf("disabled config must keep a registry and drop the clock: %+v", c)
	}
	c := Config{Enabled: true}.Normalized()
	if c.Registry == nil || c.Clock == nil {
		t.Fatalf("enabled config missing defaults: %+v", c)
	}
	if c.Clock.Now() <= 0 {
		t.Fatalf("system clock returned non-positive nanos")
	}
}

// TestFillReadsTaggedSeries: a view names the series it renders; Fill reads
// counters and gauges alike, by label, and leaves untagged fields alone.
func TestFillReadsTaggedSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", QueryLabelKey, "q").Add(7)
	r.Counter("hits", QueryLabelKey, "other").Add(1)
	r.Gauge("size", QueryLabelKey, "q").Set(-3)
	r.Gauge("down", QueryLabelKey, "q").Set(1)
	var v struct {
		Hits   uint64 `metric:"hits"`
		Size   int    `metric:"size"`
		Down   bool   `metric:"down"`
		Absent uint64 `metric:"absent"`
		Name   string
	}
	v.Name, v.Absent = "kept", 9
	Fill(&v, r.Snapshot(), "q")
	if v.Hits != 7 || v.Size != -3 || !v.Down || v.Absent != 0 || v.Name != "kept" {
		t.Fatalf("filled %+v", v)
	}
}

// TestForgetDropsALabel: a registration that goes away takes its series with
// it, and only its own.
func TestForgetDropsALabel(t *testing.T) {
	r := NewRegistry()
	gone := r.Counter("hits", QueryLabelKey, "q")
	r.Gauge("size", QueryLabelKey, "q").Set(2)
	r.Counter("hits", QueryLabelKey, "other").Inc()
	r.Counter("hits", "", "").Inc()
	r.Forget(QueryLabelKey, "q")
	gone.Inc() // a resolved handle keeps working, unreported
	s := r.Snapshot()
	if len(s.Counters) != 2 || len(s.Gauges) != 0 || s.Counter("hits", "q") != 0 || s.Counter("hits", "other") != 1 {
		t.Fatalf("after Forget: %+v %+v", s.Counters, s.Gauges)
	}
}

func snapshotOf(h *Histogram, name, lk, lv string) HistogramSnapshot {
	hs := HistogramSnapshot{
		Name: name, LabelKey: lk, LabelValue: lv,
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]uint64, NumBuckets),
	}
	for i := range h.buckets {
		hs.Buckets[i] = h.buckets[i].Load()
	}
	hs.fillSummary()
	return hs
}
