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
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
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

// goldenNetflow is the metrics golden's run: the four netflow queries at a
// one-second window over three seconds of stream, so expiry and pruning run.
func goldenNetflow() gen.Workload {
	return gen.NetFlowWorkload(gen.NetFlowConfig{
		Hosts: 250, Servers: 25, Edges: 3000, Start: graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap: time.Millisecond, ContactSkew: 1.4, Seed: 42,
	}, time.Second)
}

// TestMetricsAllocationBudget: the backend's Metrics is its engine's own
// view, with no fold or merge behind it.
func TestMetricsAllocationBudget(t *testing.T) {
	w := goldenNetflow()
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine))
	defer eng.Close()
	registerAll(t, eng, w)
	streamBatches(t, eng, w, 0, len(w.Edges), 250)
	ctx := context.Background()
	allocbudget.Check(t, "streamworks.Sharded.Metrics", func() { eng.Metrics(ctx) })
}

// TestMetricsViewsMatchGolden pins what the metrics views report for a small
// deterministic netflow run with a write-ahead log ("local"): the engine's
// view and the durability counters, read once the pipeline has drained.
func TestMetricsViewsMatchGolden(t *testing.T) {
	w := goldenNetflow()
	type reading struct {
		Metrics    any `json:"metrics"`
		Durability any `json:"durability"`
	}
	eng := streamworks.New(streamworks.WithEngineConfig(w.Engine),
		streamworks.WithDataDir(t.TempDir()), streamworks.WithFsyncPolicy("off"))
	registerAll(t, eng, w)
	streamBatches(t, eng, w, 0, len(w.Edges), 250)
	m, err := eng.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	got := map[string]reading{"local": {Metrics: metricsView(t, m), Durability: eng.Durability()}}
	eng.Close()
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
