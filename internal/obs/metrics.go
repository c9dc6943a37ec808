package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket 0 holds
// zero-valued observations; bucket i (i ≥ 1) holds values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). The last bucket additionally
// absorbs everything larger. With nanosecond observations the layout spans
// 1 ns to ~9 minutes in power-of-two steps — fine enough for microsecond
// joins and wide enough for multi-second queue waits, with no configuration
// to disagree on, which is what makes snapshots mergeable by construction.
const NumBuckets = 40

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores Add (disabled observability).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic value that goes up and down: a size as it stands, set
// by the goroutine that owns the thing measured. The zero value is ready to
// use; a nil Gauge ignores Set.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency histogram with atomic cells. Writers
// call Observe with non-negative nanosecond (or other unit) values; readers
// snapshot at any time. The zero value is ready to use; a nil Histogram
// ignores observations.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveN records n observations of the same value in one shot — the batch
// form used when one measured wait applies to every edge in a batch, so
// per-edge segment means stay composable with per-edge measurements.
func (h *Histogram) ObserveN(v int64, n int) {
	if h == nil || n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(uint64(n))
	h.count.Add(uint64(n))
	h.sum.Add(v * int64(n))
}

// metricKey identifies one metric series inside a registry.
type metricKey struct {
	name       string
	labelKey   string
	labelValue string
}

// Registry is a get-or-create store of named counters, gauges and
// histograms. Handle resolution takes a mutex and is meant for setup time;
// the handles themselves are lock-free. Snapshots are safe from any goroutine.
type Registry struct {
	mu       sync.RWMutex
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*Histogram),
	}
}

// Gauge returns the named gauge, creating it on first use; nil from a nil
// registry, like Counter.
func (r *Registry) Gauge(name, labelKey, labelValue string) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey{name, labelKey, labelValue}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Counter returns the named counter, creating it on first use. Label key and
// value may be empty for unlabelled series. A nil registry returns nil (and
// nil handles ignore writes), so call sites need no enabled checks beyond
// the one that decided not to create the registry.
func (r *Registry) Counter(name, labelKey, labelValue string) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey{name, labelKey, labelValue}
	r.mu.RLock()
	c := r.counters[k]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[k]; c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name, labelKey, labelValue string) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey{name, labelKey, labelValue}
	r.mu.RLock()
	h := r.hists[k]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[k]; h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// CounterSnapshot is one counter series at a point in time.
type CounterSnapshot struct {
	Name       string `json:"name"`
	LabelKey   string `json:"label_key,omitempty"`
	LabelValue string `json:"label_value,omitempty"`
	Value      uint64 `json:"value"`
}

// GaugeSnapshot is one gauge series at a point in time.
type GaugeSnapshot struct {
	Name       string `json:"name"`
	LabelKey   string `json:"label_key,omitempty"`
	LabelValue string `json:"label_value,omitempty"`
	Value      int64  `json:"value"`
}

// HistogramSnapshot is one histogram series at a point in time, with summary
// statistics precomputed so JSON consumers (loadgen, dashboards) need not
// reimplement bucket math. Quantiles are log-linear estimates from the
// power-of-two buckets.
type HistogramSnapshot struct {
	Name       string   `json:"name"`
	LabelKey   string   `json:"label_key,omitempty"`
	LabelValue string   `json:"label_value,omitempty"`
	Count      uint64   `json:"count"`
	Sum        int64    `json:"sum_ns"`
	Mean       float64  `json:"mean_ns"`
	P50        float64  `json:"p50_ns"`
	P90        float64  `json:"p90_ns"`
	P99        float64  `json:"p99_ns"`
	Buckets    []uint64 `json:"buckets,omitempty"`
}

// Snapshot is a consistent-enough copy of a registry (each cell is read
// atomically; cross-cell skew is bounded by in-flight observations), in
// deterministic (name, label) order.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	counters := make(map[metricKey]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	hists := make(map[metricKey]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	var s Snapshot
	for k, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{
			Name: k.name, LabelKey: k.labelKey, LabelValue: k.labelValue,
			Value: g.Value(),
		})
	}
	r.mu.RUnlock()

	for k, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{
			Name: k.name, LabelKey: k.labelKey, LabelValue: k.labelValue,
			Value: c.Value(),
		})
	}
	for k, h := range hists {
		hs := HistogramSnapshot{
			Name: k.name, LabelKey: k.labelKey, LabelValue: k.labelValue,
			Count:   h.count.Load(),
			Sum:     h.sum.Load(),
			Buckets: make([]uint64, NumBuckets),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		hs.fillSummary()
		s.Histograms = append(s.Histograms, hs)
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		a, b := s.Counters[i], s.Counters[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.LabelValue < b.LabelValue
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		a, b := s.Gauges[i], s.Gauges[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.LabelValue < b.LabelValue
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		a, b := s.Histograms[i], s.Histograms[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.LabelValue < b.LabelValue
	})
}

// fillSummary recomputes Mean and the quantile estimates from Count, Sum and
// Buckets.
func (hs *HistogramSnapshot) fillSummary() {
	if hs.Count == 0 {
		hs.Mean, hs.P50, hs.P90, hs.P99 = 0, 0, 0, 0
		return
	}
	hs.Mean = float64(hs.Sum) / float64(hs.Count)
	hs.P50 = hs.Quantile(0.50)
	hs.P90 = hs.Quantile(0.90)
	hs.P99 = hs.Quantile(0.99)
}

// Quantile estimates the q-th quantile (0 < q < 1) by linear interpolation
// inside the power-of-two bucket containing it.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	if hs.Count == 0 || len(hs.Buckets) == 0 {
		return 0
	}
	target := q * float64(hs.Count)
	cum := 0.0
	for i, b := range hs.Buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if next >= target {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / float64(b)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum = next
	}
	_, hi := bucketBounds(len(hs.Buckets) - 1)
	return float64(hi)
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// BucketUpperBound returns the inclusive upper bound of bucket i (the
// Prometheus `le` boundary): 2^i − 1 for all but the last bucket, which is
// unbounded (+Inf) and reported as such by the exposition writer.
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1<<i - 1
}

// Merge folds any number of snapshots into one: counters and gauges with the
// same (name, label) sum — a gauge here is a size, and the workers' sizes add
// up to the engine's — and histograms sum cell-wise. Shard front-ends use this to
// present per-worker registries as a single logical registry, mirroring how
// shard.Metrics() sums worker counters.
func Merge(snaps ...Snapshot) Snapshot {
	counters := make(map[metricKey]*CounterSnapshot)
	gauges := make(map[metricKey]int)
	hists := make(map[metricKey]*HistogramSnapshot)
	var corder, horder []metricKey
	var out Snapshot
	for _, s := range snaps {
		for _, g := range s.Gauges {
			k := metricKey{g.Name, g.LabelKey, g.LabelValue}
			if i, ok := gauges[k]; ok {
				out.Gauges[i].Value += g.Value
			} else {
				gauges[k] = len(out.Gauges)
				out.Gauges = append(out.Gauges, g)
			}
		}
		for _, c := range s.Counters {
			k := metricKey{c.Name, c.LabelKey, c.LabelValue}
			if have, ok := counters[k]; ok {
				have.Value += c.Value
			} else {
				cc := c
				counters[k] = &cc
				corder = append(corder, k)
			}
		}
		for _, h := range s.Histograms {
			k := metricKey{h.Name, h.LabelKey, h.LabelValue}
			if have, ok := hists[k]; ok {
				have.Count += h.Count
				have.Sum += h.Sum
				for i := range have.Buckets {
					if i < len(h.Buckets) {
						have.Buckets[i] += h.Buckets[i]
					}
				}
			} else {
				hh := h
				hh.Buckets = append([]uint64(nil), h.Buckets...)
				hists[k] = &hh
				horder = append(horder, k)
			}
		}
	}
	for _, k := range corder {
		out.Counters = append(out.Counters, *counters[k])
	}
	for _, k := range horder {
		h := hists[k]
		h.fillSummary()
		out.Histograms = append(out.Histograms, *h)
	}
	out.sort()
	return out
}

// Find returns the histogram snapshot with the given name and label value,
// if present.
func (s Snapshot) Find(name, labelValue string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && h.LabelValue == labelValue {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// FindGauge returns the gauge snapshot with the given name and label value,
// if present.
func (s Snapshot) FindGauge(name, labelValue string) (GaugeSnapshot, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && g.LabelValue == labelValue {
			return g, true
		}
	}
	return GaugeSnapshot{}, false
}

// FindCounter returns the counter snapshot with the given name and label
// value, if present.
func (s Snapshot) FindCounter(name, labelValue string) (CounterSnapshot, bool) {
	for _, c := range s.Counters {
		if c.Name == name && c.LabelValue == labelValue {
			return c, true
		}
	}
	return CounterSnapshot{}, false
}
