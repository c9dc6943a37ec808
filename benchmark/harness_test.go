package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 1000 samples: the p99 is the 990th, with exactly ten beyond it.
	v, ok := percentile(ramp(1000), 0.99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, supported %v; want 990, true", v, ok)
	}
	// One sample fewer leaves nine beyond the 990th.
	if v, ok := percentile(ramp(999), 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v, supported %v; want 990, false", v, ok)
	}
	if v, ok := percentile(ramp(1000), 0.50); v != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %v, supported %v; want 500, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of nothing is not supported")
	}
	// 150 samples support the p90 (15 beyond) but not the p99 (1 beyond).
	p, v, ok := highestPercentile(ramp(150), []float64{0.50, 0.90, 0.99})
	if !ok || p != 0.90 || v != 135 {
		t.Errorf("highest supported percentile of 1..150 = p%v (%v), %v; want p0.9 (135)", p, v, ok)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{ramp(10), 2.75, 5.5, 8.25}, // statistics.quantiles(range(1, 11), n=4)
		{ramp(5), 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25}, // extrapolates, as Python does
		{[]float64{10, 10, 10, 10}, 10, 10, 10},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrShare(ramp(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := spreadPct([]float64{95, 100, 105}); got != 10 {
		t.Errorf("spreadPct = %v, want 10", got)
	}
}

func TestPacerChargesLatenessAndBacklog(t *testing.T) {
	var clock time.Duration
	var slept []time.Duration
	p := &pacer{
		interval: 10 * time.Millisecond,
		now:      func() time.Duration { return clock },
		sleep:    func(d time.Duration) { slept = append(slept, d); clock += d },
	}
	p.wait(0) // due now: sent at once, on time
	clock = 4 * time.Millisecond
	p.wait(1) // due at 10 ms: sleeps 6 ms
	if len(slept) != 1 || slept[0] != 6*time.Millisecond || clock != 10*time.Millisecond {
		t.Fatalf("slept %v, clock %v; want one 6ms sleep ending at 10ms", slept, clock)
	}
	clock = 55 * time.Millisecond // batch 1 stalled for 45 ms
	p.wait(2)                     // was due at 20 ms: 35 ms late, batches 3, 4 and 5 are due behind it
	clock = 56 * time.Millisecond
	p.wait(3) // was due at 30 ms: 26 ms late
	want := []time.Duration{0, 0, 35 * time.Millisecond, 26 * time.Millisecond}
	if !slices.Equal(p.lateness, want) {
		t.Errorf("lateness %v, want %v", p.lateness, want)
	}
	if p.maxBacklog != 3 {
		t.Errorf("max backlog %d, want 3", p.maxBacklog)
	}
	if len(slept) != 1 {
		t.Errorf("late batches must not sleep: slept %v", slept)
	}
	if p.due(7) != 70*time.Millisecond {
		t.Errorf("due(7) = %v", p.due(7))
	}
}

func edge(id graph.EdgeID, ts int64) graph.StreamEdge {
	return graph.StreamEdge{Edge: graph.Edge{ID: id, Timestamp: graph.Timestamp(ts)}}
}

func TestLastArrivingEdgeNamesTheBatch(t *testing.T) {
	// A stream whose edge IDs are not in arrival order, as after a merge of
	// background and injected edges: one warm-up batch, two timed batches.
	in := &inputs{}
	n := 3 * batchSize
	for i := 0; i < n; i++ {
		in.edges = append(in.edges, edge(graph.EdgeID(n-i+4), int64(i)))
	}
	in.cut(graph.Timestamp(batchSize), 0, 2*batchSize)
	if in.warm != batchSize || len(in.timed()) != 2*batchSize {
		t.Fatalf("warm %d, timed %d", in.warm, len(in.timed()))
	}
	id := func(streamIndex int) uint64 { return uint64(n - streamIndex + 4) }
	if got := in.position(id(300)); got != 300 {
		t.Fatalf("position = %d, want 300", got)
	}
	if got := in.position(3); got != -1 {
		t.Errorf("an ID below every edge resolves to %d, want -1", got)
	}
	if got := in.position(1 << 40); got != -1 {
		t.Errorf("an ID beyond the stream resolves to %d, want -1", got)
	}
	// The match's edges arrived at 10 (warm-up), 700 and 300: the edge at 700
	// completed it, in the second timed batch.
	last := lastArriving(in, []uint64{id(10), id(700), id(300)})
	if last != 700 || batchOf(in, last) != 1 {
		t.Errorf("last arriving %d in batch %d, want 700 in batch 1", last, batchOf(in, last))
	}
	if got := batchOf(in, batchSize); got != 0 {
		t.Errorf("first timed edge in batch %d, want 0", got)
	}
}

func TestCutDropsTruncatedGroundTruth(t *testing.T) {
	in := &inputs{
		attacks: []gen.AttackInstance{{End: 100}, {End: 5000}},
		events:  []gen.NewsEvent{{End: 200}, {End: 767}, {End: 9000}},
	}
	for i := 0; i < 4*batchSize; i++ {
		in.edges = append(in.edges, edge(graph.EdgeID(i+1), int64(i)))
	}
	in.cut(0, batchSize+7, 2*batchSize+9) // both round down to whole batches
	if in.warm != batchSize || len(in.edges) != 3*batchSize {
		t.Fatalf("warm %d of %d edges, want %d of %d", in.warm, len(in.edges), batchSize, 3*batchSize)
	}
	// The stream now ends at timestamp 767: truth ending there or later was cut into.
	if len(in.attacks) != 1 || len(in.events) != 1 {
		t.Errorf("kept %d attacks and %d events, want 1 and 1", len(in.attacks), len(in.events))
	}
}

func TestSelfTimeSubtractsOnlyCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "child", ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps the first: union is 10..50
		{Name: "child", ID: 4, Parent: 1, Start: 90, End: 130},  // clipped at the parent's end
		{Name: "child", ID: 5, Parent: 1, Start: 150, End: 170}, // after the parent: takes nothing
		{Name: "leaf", ID: 6, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	if self["parent"] != 100-40-10 {
		t.Errorf("parent self time %d, want 50", self["parent"])
	}
	// 20 + (30 - 10 covered by the leaf) + 40 + 20.
	if self["child"] != 20+20+40+20 {
		t.Errorf("child self time %d, want 100", self["child"])
	}
	if self["leaf"] != 10 {
		t.Errorf("leaf self time %d, want 10", self["leaf"])
	}
}

func TestPhaseTraceParentsAndCap(t *testing.T) {
	tr := newPhaseTrace("paced", spanIngest, 4)
	tr.process(2, 1, 9)
	tr.match(2, 5, 6)
	all := tr.spans()
	if len(all) != 2 || all[0].Name != spanIngest || all[0].Parent != 0 || all[1].Parent != all[0].ID {
		t.Fatalf("spans %+v: want process <- match", all)
	}
	for _, s := range all {
		if s.Batch != 2 || s.Phase != "paced" {
			t.Errorf("span %+v does not carry the batch and phase", s)
		}
	}
	ids := map[int]bool{}
	for b := 0; b < 4; b++ {
		ids[processSpanID(b)] = true
	}
	if len(ids) != 4 || ids[0] || ids[all[1].ID] {
		t.Errorf("span IDs collide: %v vs match %d", ids, all[1].ID)
	}
	for i := 0; i < maxSinkSpans+5; i++ {
		tr.match(0, 0, 1)
	}
	if len(tr.sink) != maxSinkSpans || tr.sinkDropped != 6 {
		t.Errorf("kept %d sink spans, dropped %d; want %d and 6", len(tr.sink), tr.sinkDropped, maxSinkSpans)
	}
}

func TestMatchKeysAndDigest(t *testing.T) {
	if sigKey("ab", "c") == sigKey("a", "bc") {
		t.Error("the query/signature boundary must be part of the key")
	}
	if idsKey("q", []uint64{1, 2}) == idsKey("q", []uint64{2, 1}) {
		t.Error("idsKey is order-sensitive: callers sort first")
	}
	a := sortedSet([]uint64{5, 1, 5, 3})
	if !slices.Equal(a, []uint64{1, 3, 5}) {
		t.Fatalf("sortedSet = %v", a)
	}
	onlyA, onlyB := setDiff(a, []uint64{0, 3, 9, 10})
	if onlyA != 2 || onlyB != 3 {
		t.Errorf("setDiff = %d, %d; want 2, 3", onlyA, onlyB)
	}
	if !contains(a, 3) || contains(a, 4) {
		t.Error("contains")
	}
	n1, d1 := digestOf(a)
	n2, d2 := digestOf([]uint64{1, 3, 6})
	if n1 != 3 || n2 != 3 || d1 == d2 || len(d1) != 64 {
		t.Errorf("digests %d %s / %d %s", n1, d1, n2, d2)
	}
	if _, again := digestOf(a); again != d1 {
		t.Error("digest is not a function of the set")
	}
}

func TestFamilyResolvesVariantNames(t *testing.T) {
	for name, want := range map[string]string{
		"smurf-ddos": "smurf", "smurf-v000": "smurf", "worm-hop": "worm", "worm-v009": "worm",
		"worm-chain": "worm-chain", "worm-chain-v010": "worm-chain", "exfiltration": "exfil",
		"exfil-v195": "exfil", "news-event": "news2", "news2-v006": "news2", "news3-v007": "news3",
		"probe-v004": "probe",
	} {
		if got := family(name); got != want {
			t.Errorf("family(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestExpectationFromGroundTruth(t *testing.T) {
	// One two-amplifier smurf attack (request, reply per amplifier) and one
	// three-article event cluster, all inside a 10-tick window.
	in := &inputs{
		queries: []*query.Graph{
			gen.SmurfQuery(10), gen.WormQuery(10), gen.NewsEventQuery(10, 2, ""), gen.NewsEventQuery(3, 2, ""),
		},
		attacks: []gen.AttackInstance{{Kind: gen.AttackSmurf, EdgeIDs: []graph.EdgeID{1, 2, 3, 4}}},
		events:  []gen.NewsEvent{{Keyword: 50, Location: 60, Articles: []graph.VertexID{71, 72, 73}}},
	}
	for i := 1; i <= 4; i++ {
		in.edges = append(in.edges, edge(graph.EdgeID(i), int64(i)))
	}
	for i, a := range []graph.VertexID{71, 72, 73} {
		se := edge(graph.EdgeID(10+i), int64(2*i)) // published at 0, 2, 4
		se.Edge.Source = a
		in.edges = append(in.edges, se)
	}
	in.pos = make([]int32, 20)
	for i := range in.pos {
		in.pos[i] = -1
	}
	for i, se := range in.edges {
		in.pos[se.Edge.ID] = int32(i)
	}
	ex := expect(in)
	if ex.instances != 2 {
		t.Errorf("instances = %d, want 2", ex.instances)
	}
	// Two amplifier legs for the smurf query; the worm query expects nothing.
	if len(ex.edgeKeys) != 2 || !contains(ex.edgeKeys, idsKey("smurf-ddos", []uint64{1, 2})) || !contains(ex.edgeKeys, idsKey("smurf-ddos", []uint64{3, 4})) {
		t.Errorf("edge keys %v", ex.edgeKeys)
	}
	// Both news queries share a name here, so their keys coincide: all three
	// pairs fit the 10-tick window, only the adjacent pairs the 3-tick one.
	if len(ex.vertexKeys) != 3 || !contains(ex.vertexKeys, idsKey("news-event", []uint64{50, 60, 71, 73})) {
		t.Errorf("vertex keys %v", ex.vertexKeys)
	}
	narrow := expect(&inputs{queries: in.queries[3:], events: in.events, edges: in.edges, pos: in.pos})
	if len(narrow.vertexKeys) != 2 || contains(narrow.vertexKeys, idsKey("news-event", []uint64{50, 60, 71, 73})) {
		t.Errorf("a 3-tick window must drop the pair published 4 ticks apart: %v", narrow.vertexKeys)
	}
}

func TestStopwatchNeverGoesNegative(t *testing.T) {
	var s stopwatch
	s.total = -5
	if s.per(3) != 0 || s.per(0) != 0 {
		t.Error("a stopwatch below the clock's own cost reads zero")
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
}

func TestSpecNamesEveryWorkloadAndItsRate(t *testing.T) {
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%s lists %d workloads, the harness has %d", specPath, len(spec.Workloads), len(workloads))
	}
	for _, w := range workloads {
		if rate, err := spec.pacedRate(w.name); err != nil || rate < 1000 {
			t.Errorf("paced rate of %s = %v, %v", w.name, rate, err)
		}
	}
	if _, err := spec.pacedRate("no-such-workload"); err == nil {
		t.Error("an unlisted workload has no rate")
	}
	if spec.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %s", spec.EndToEnd[0].Name)
	}
	// setup_s is the one timing the contract obliges the benchmark to gate.
	for _, m := range spec.EndToEnd {
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s is gated at %v; want above 0 and at most %v", m.Name, m.Bound, limit)
		}
	}
	if spec.RunSeconds < 1 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}

	var inline benchmarkSpec
	inline.Workloads = append(inline.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{"w", "no rate here"})
	if _, err := inline.pacedRate("w"); err == nil {
		t.Error("a why without paced_rate= must be refused")
	}
	inline.Workloads[0].Why = "shared work. paced_rate=9800 edges/s"
	if rate, err := inline.pacedRate("w"); err != nil || rate != 9800 {
		t.Errorf("rate = %v, %v; want 9800", rate, err)
	}
}

func TestResultLineCarriesWhatTheSpecLists(t *testing.T) {
	spec := &benchmarkSpec{
		EndToEnd: []specMetric{{Name: "setup_s"}, {Name: "state_mb"}},
		PerLayer: []specMetric{{Name: "edges_per_s"}},
	}
	measured := map[string]metric{"setup_s": {1.5, "s"}, "state_mb": {5, "MiB"}, "edges_per_s": {3e4, "edges/s"}}
	got, err := spec.reported(false, measured)
	if err != nil || len(got) != 2 || got["setup_s"].Value != 1.5 || got["state_mb"].Unit != "MiB" {
		t.Errorf("untraced: %v, %v", got, err)
	}
	if got, err := spec.reported(true, measured); err != nil || len(got) != 1 || got["edges_per_s"].Value != 3e4 {
		t.Errorf("traced: %v, %v", got, err)
	}
	delete(measured, "state_mb")
	if _, err := spec.reported(false, measured); err == nil {
		t.Error("a listed metric that was not measured is an error")
	}
}

func TestReferenceSamplesEveryStridethQuery(t *testing.T) {
	in := &inputs{queries: gen.QueryVariants(20, time.Second)}
	if got := in.refQueries(&workload{}); len(got) != 20 {
		t.Errorf("no stride: %d queries, want all 20", len(got))
	}
	w := &workload{refQueryStride: 7}
	got := in.refQueries(w)
	if len(got) != 3 || got[0] != in.queries[0] || got[1] != in.queries[7] || got[2] != in.queries[14] {
		t.Errorf("stride 7 picked %d queries", len(got))
	}
	names := refQueryNames(w, in)
	if len(names) != 3 || !names[in.queries[7].Name()] || names[in.queries[1].Name()] {
		t.Errorf("names %v", names)
	}
	if refQueryNames(&workload{}, in) != nil {
		t.Error("without a stride the recorder compares everything")
	}
}

func TestWorseByFollowsTheMetricsDirection(t *testing.T) {
	if got := worseBy("lower", 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("a lower-is-better metric going 10 -> 11 is %v worse, want 0.1", got)
	}
	if got := worseBy("higher", 10, 11); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("a higher-is-better metric going 10 -> 11 is %v worse, want -0.1", got)
	}
}
