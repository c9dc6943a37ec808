package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of vs (mean of the middle two for even counts);
// zero for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spreadPct is (max-min)/median of vs in percent: how far identical passes
// of one run drifted apart.
func spreadPct(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return 100 * (hi - lo) / m
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the default "exclusive" method), which
// is what the acceptance check computes spreads from. It needs two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrShare is the distance between the first and third quartile as a share
// of the median.
func iqrShare(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailSamples is how many samples must lie beyond a percentile for it to be
// reported: a p99 over 300 samples rests on three of them.
const tailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule, and whether at least tailSamples samples lie strictly
// beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= tailSamples
}

// highestPercentile picks, from candidates in ascending order, the highest
// percentile that still has tailSamples samples beyond it.
func highestPercentile(sorted []float64, candidates []float64) (p, value float64, ok bool) {
	for _, c := range candidates {
		if v, supported := percentile(sorted, c); supported {
			p, value, ok = c, v, true
		}
	}
	return
}

// pacer is the open-loop schedule: batch i is due at start + i*interval
// whatever happened to the batches before it. now and sleep are injected so
// the arithmetic is testable without a clock.
type pacer struct {
	interval time.Duration
	now      func() time.Duration // monotonic time since the phase started
	sleep    func(time.Duration)

	lateness   []time.Duration // per batch, zero when sent on time
	maxBacklog int             // most batches due but unsent at any send
}

// due is the scheduled send time of batch i.
func (p *pacer) due(i int) time.Duration { return time.Duration(i) * p.interval }

// wait blocks until batch i is due. A batch whose time has already passed is
// sent immediately: its lateness is recorded, and so is the backlog — how
// many later batches have also come due behind it.
func (p *pacer) wait(i int) {
	due := p.due(i)
	now := p.now()
	if now < due {
		p.sleep(due - now)
		p.lateness = append(p.lateness, 0)
		return
	}
	late := now - due
	p.lateness = append(p.lateness, late)
	if p.interval > 0 {
		p.maxBacklog = max(p.maxBacklog, int(late/p.interval))
	}
}

// sortedMS converts durations to milliseconds, ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
