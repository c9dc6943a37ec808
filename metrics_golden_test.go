package streamworks_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the metrics golden file from the current engine")

// metricsView renders a Metrics snapshot for comparison: every field but the
// DAG's per-node detail, which describes the plan rather than counting.
func metricsView(t *testing.T, m streamworks.Metrics) any {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("encoding metrics: %v", err)
	}
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	delete(v["MQO"].(map[string]any), "per_node")
	return v
}

// TestMetricsViewsMatchGolden pins what the metrics views report for a small
// deterministic netflow run on the single engine and on two shards, each with
// a write-ahead log: the aggregate view, every shard's, and the durability
// counters, read once the pipeline has drained.
func TestMetricsViewsMatchGolden(t *testing.T) {
	// A one-second window over three seconds of stream: expiry and pruning
	// run.
	w := gen.NetFlowWorkload(gen.NetFlowConfig{
		Hosts: 250, Servers: 25, Edges: 3000, Start: graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap: time.Millisecond, ContactSkew: 1.4, Seed: 42,
	}, time.Second)
	type reading struct {
		Metrics    any   `json:"metrics"`
		PerShard   []any `json:"per_shard,omitempty"`
		Durability any   `json:"durability"`
	}
	got := map[string]reading{}
	for _, mk := range inProcessBackends() {
		eng := mk.mk(streamworks.WithEngineConfig(w.Engine), streamworks.WithShards(2),
			streamworks.WithDataDir(t.TempDir()), streamworks.WithFsyncPolicy("off"))
		registerAll(t, eng, w)
		streamBatches(t, eng, w, 0, len(w.Edges), 250)
		var r reading
		if s, ok := eng.(*streamworks.Sharded); ok {
			if err := s.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			for _, m := range s.PerShardMetrics() {
				r.PerShard = append(r.PerShard, metricsView(t, m))
			}
		}
		m, err := eng.Metrics(context.Background())
		if err != nil {
			t.Fatalf("%s: Metrics: %v", mk.name, err)
		}
		r.Metrics, r.Durability = metricsView(t, m), eng.Durability()
		got[mk.name] = r
		eng.Close()
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatalf("encoding readings: %v", err)
	}
	out = append(out, '\n')
	path := filepath.Join("testdata", "metrics_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(out, want) {
		got, exp := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(got), len(exp)) {
			if got[i] != exp[i] {
				t.Fatalf("metrics views moved from %s at line %d: got %q, want %q", path, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("metrics views moved from %s: %d lines, want %d", path, len(got), len(exp))
	}
}
