package obs

import (
	"cmp"
	"maps"
	"math/bits"
	"reflect"
	"slices"
	"strings"
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
// A nil registry hands out nil handles, which ignore writes.
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

// handle returns the series k of m, creating it on first use.
func handle[T any](r *Registry, m map[metricKey]*T, k metricKey) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := m[k]
	if h == nil {
		h = new(T)
		m[k] = h
	}
	return h
}

// Counter returns the named counter, creating it on first use. Label key and
// value may be empty for unlabelled series.
func (r *Registry) Counter(name, labelKey, labelValue string) *Counter {
	if r == nil {
		return nil
	}
	return handle(r, r.counters, metricKey{name, labelKey, labelValue})
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, labelKey, labelValue string) *Gauge {
	if r == nil {
		return nil
	}
	return handle(r, r.gauges, metricKey{name, labelKey, labelValue})
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name, labelKey, labelValue string) *Histogram {
	if r == nil {
		return nil
	}
	return handle(r, r.hists, metricKey{name, labelKey, labelValue})
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
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	for k, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{
			Name: k.name, LabelKey: k.labelKey, LabelValue: k.labelValue,
			Value: c.Value(),
		})
	}
	for k, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{
			Name: k.name, LabelKey: k.labelKey, LabelValue: k.labelValue,
			Value: g.Value(),
		})
	}
	for k, h := range r.hists {
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
	r.mu.RUnlock()
	s.sort()
	return s
}

// Forget drops every counter and gauge labelled labelKey=labelValue, so a
// registration that goes away takes its series with it; handles already
// resolved keep working but are no longer reported.
func (r *Registry) Forget(labelKey, labelValue string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	maps.DeleteFunc(r.counters, func(k metricKey, _ *Counter) bool { return k.labelKey == labelKey && k.labelValue == labelValue })
	maps.DeleteFunc(r.gauges, func(k metricKey, _ *Gauge) bool { return k.labelKey == labelKey && k.labelValue == labelValue })
}

func (s *Snapshot) sort() {
	sortSeries(s.Counters, func(c CounterSnapshot) (string, string) { return c.Name, c.LabelValue })
	sortSeries(s.Gauges, func(g GaugeSnapshot) (string, string) { return g.Name, g.LabelValue })
	sortSeries(s.Histograms, func(h HistogramSnapshot) (string, string) { return h.Name, h.LabelValue })
}

// sortSeries orders series by (name, label value).
func sortSeries[T any](xs []T, key func(T) (string, string)) {
	slices.SortFunc(xs, func(a, b T) int {
		an, al := key(a)
		bn, bl := key(b)
		return cmp.Or(strings.Compare(an, bn), strings.Compare(al, bl))
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
// up to the engine's — and histograms sum cell-wise. It is the one place
// numbers are added across shards or tiers: the sharded engine's Metrics, its
// snapshot and the daemon's two metrics endpoints are all built from its
// output. A fact that must not be summed is published once, under its own
// name, by the tier that owns it.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	counters, gauges, hists := map[metricKey]int{}, map[metricKey]int{}, map[metricKey]int{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			if i, ok := counters[metricKey{c.Name, c.LabelKey, c.LabelValue}]; ok {
				out.Counters[i].Value += c.Value
			} else {
				counters[metricKey{c.Name, c.LabelKey, c.LabelValue}] = len(out.Counters)
				out.Counters = append(out.Counters, c)
			}
		}
		for _, g := range s.Gauges {
			if i, ok := gauges[metricKey{g.Name, g.LabelKey, g.LabelValue}]; ok {
				out.Gauges[i].Value += g.Value
			} else {
				gauges[metricKey{g.Name, g.LabelKey, g.LabelValue}] = len(out.Gauges)
				out.Gauges = append(out.Gauges, g)
			}
		}
		for _, h := range s.Histograms {
			if i, ok := hists[metricKey{h.Name, h.LabelKey, h.LabelValue}]; ok {
				have := &out.Histograms[i]
				have.Count += h.Count
				have.Sum += h.Sum
				for j := range min(len(have.Buckets), len(h.Buckets)) {
					have.Buckets[j] += h.Buckets[j]
				}
			} else {
				hists[metricKey{h.Name, h.LabelKey, h.LabelValue}] = len(out.Histograms)
				h.Buckets = slices.Clone(h.Buckets)
				out.Histograms = append(out.Histograms, h)
			}
		}
	}
	for i := range out.Histograms {
		out.Histograms[i].fillSummary()
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

// Counter returns the value of the named counter series, zero when it is
// absent. s must be sorted, as Registry.Snapshot and Merge return it.
func (s Snapshot) Counter(name, labelValue string) uint64 {
	i, ok := slices.BinarySearchFunc(s.Counters, [2]string{name, labelValue}, func(c CounterSnapshot, k [2]string) int {
		return cmp.Or(strings.Compare(c.Name, k[0]), strings.Compare(c.LabelValue, k[1]))
	})
	if !ok {
		return 0
	}
	return s.Counters[i].Value
}

// Gauge returns the value of the named gauge series, zero when it is absent.
// s must be sorted, as Registry.Snapshot and Merge return it.
func (s Snapshot) Gauge(name, labelValue string) int64 {
	i, ok := slices.BinarySearchFunc(s.Gauges, [2]string{name, labelValue}, func(g GaugeSnapshot, k [2]string) int {
		return cmp.Or(strings.Compare(g.Name, k[0]), strings.Compare(g.LabelValue, k[1]))
	})
	if !ok {
		return 0
	}
	return s.Gauges[i].Value
}

// Fill is how a metrics view reads a snapshot: every field of the struct dst
// points to that carries a `metric:"<series>"` tag is set to that counter's
// or gauge's value, labelled labelValue — a bool field to whether it is
// non-zero. Other fields are left alone.
func Fill(dst any, s Snapshot, labelValue string) {
	v := reflect.ValueOf(dst).Elem()
	for i := range v.NumField() {
		name := v.Type().Field(i).Tag.Get("metric")
		if name == "" {
			continue
		}
		// A name is a counter's or a gauge's, so one of the two is zero.
		n := int64(s.Counter(name, labelValue)) + s.Gauge(name, labelValue)
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(n != 0)
		case reflect.Int, reflect.Int64:
			f.SetInt(n)
		default:
			f.SetUint(uint64(n))
		}
	}
}
