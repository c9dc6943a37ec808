package obs

import (
	"strings"
	"testing"
)

func TestPromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("edges_processed", "", "").Add(12345)
	r.Counter("query_matches_emitted", QueryLabelKey, "smurf").Add(7)
	seg := r.Segment(SegLocalSearch)
	for i := 0; i < 100; i++ {
		seg.Observe(1500)
	}
	r.Segment(SegDAGJoin).Observe(3_000_000)
	r.Gauge("query_rows", QueryLabelKey, "smurf").Set(9)
	r.Gauge("query_rows", QueryLabelKey, "smurf").Set(7) // a gauge is replaced, not added to

	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Snapshot(r.Snapshot())
	pw.Gauge("live_edges", "", "", 42)
	if err := pw.Err(); err != nil {
		t.Fatalf("write: %v", err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE streamworks_edges_processed_total counter",
		"streamworks_edges_processed_total 12345",
		`streamworks_query_matches_emitted_total{query="smurf"} 7`,
		"# TYPE streamworks_segment_latency_seconds histogram",
		`streamworks_segment_latency_seconds_bucket{segment="local_search",le="+Inf"} 100`,
		`streamworks_segment_latency_seconds_count{segment="local_search"} 100`,
		`streamworks_segment_latency_seconds_count{segment="dag_join"} 1`,
		"streamworks_live_edges 42",
		"# TYPE streamworks_query_rows gauge",
		`streamworks_query_rows{query="smurf"} 7`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	samples, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition did not parse: %v\n%s", err, text)
	}
	byseries := map[string]float64{}
	for _, s := range samples {
		byseries[s.Series()] = s.Value
	}
	if byseries["streamworks_edges_processed_total"] != 12345 {
		t.Fatalf("parsed counter = %v", byseries["streamworks_edges_processed_total"])
	}
	if byseries[`streamworks_segment_latency_seconds_count{segment="local_search"}`] != 100 {
		t.Fatalf("parsed histogram count missing: %v", byseries)
	}
	// sum of 100×1500ns = 150µs = 1.5e-4 s
	if got := byseries[`streamworks_segment_latency_seconds_sum{segment="local_search"}`]; got < 1.4e-4 || got > 1.6e-4 {
		t.Fatalf("histogram sum in seconds = %v", got)
	}
	// Buckets must be cumulative and monotone.
	prev := -1.0
	for _, s := range samples {
		if s.Name != "streamworks_segment_latency_seconds_bucket" || s.Labels["segment"] != "local_search" {
			continue
		}
		if s.Value < prev {
			t.Fatalf("bucket counts not monotone: %v after %v", s.Value, prev)
		}
		prev = s.Value
	}
}

// TestPromLabelValueRoundTrip: a query name is free text, and the name a
// scrape reads back must be the one registered — escaped once, not twice.
func TestPromLabelValueRoundTrip(t *testing.T) {
	const name = "smurf \"v2\" q\\1\nnext"
	r := NewRegistry()
	r.Gauge("query_rows", QueryLabelKey, name).Set(3)
	r.Histogram("match_latency", QueryLabelKey, name).Observe(1500)
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Snapshot(r.Snapshot())
	if err := pw.Err(); err != nil {
		t.Fatalf("write: %v", err)
	}
	samples, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own exposition did not parse: %v\n%s", err, sb.String())
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		if got := s.Labels[QueryLabelKey]; got != name {
			t.Fatalf("%s: query label read back as %q, want %q", s.Series(), got, name)
		}
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here",
		"1leading_digit 3",
		`unterminated{label="x 3`,
		`bad_value{a="b"} notafloat`,
		`missing_quote{a=b} 3`,
		"name 1 2 3",
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseProm accepted %q", bad)
		}
	}
	// Comments, blank lines and timestamps are fine.
	ok := "# HELP x y\n# TYPE x counter\n\nx_total 5 1700000000000\n"
	samples, err := ParseProm(strings.NewReader(ok))
	if err != nil || len(samples) != 1 || samples[0].Value != 5 {
		t.Fatalf("ParseProm(%q) = %v, %v", ok, samples, err)
	}
}
