package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// Every path is relative to the repository root, where run.sh starts the
// binary.
const (
	specPath   = "BENCHMARK.json"
	outDir     = "benchmark/out" // span files and WAL data directories
	digestPath = "benchmark/testdata/digests.json"
	noisePath  = "benchmark/NOISE.md"
)

// benchmarkSpec is BENCHMARK.json: the one place that says which workloads
// exist, at what rate each is paced, which metrics a run reports as its result
// and which of them are gated by what bound.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

var pacedRatePattern = regexp.MustCompile(`paced_rate=(\d+)`)

// pacedRate is the workload's open-loop rate in edges/s. The file's schema
// has a name and a one-line why per workload and nothing else, so the
// constant lives in the why, as `paced_rate=13000`. It was fixed once at about
// 40% of the seed commit's median edges_per_s (two significant figures) and is
// never derived at run time; it also fixes the length of the timed stream
// (rate x paced seconds), which every pass replays.
func (s *benchmarkSpec) pacedRate(workload string) (float64, error) {
	for _, w := range s.Workloads {
		if w.Name != workload {
			continue
		}
		m := pacedRatePattern.FindStringSubmatch(w.Why)
		if m == nil {
			return 0, fmt.Errorf("%s: workload %s names no paced_rate=<edges/s>", specPath, workload)
		}
		rate, err := strconv.ParseFloat(m[1], 64)
		if err != nil || rate <= 0 {
			return 0, fmt.Errorf("%s: workload %s: paced_rate %q", specPath, workload, m[1])
		}
		return rate, nil
	}
	return 0, fmt.Errorf("%s does not list workload %s", specPath, workload)
}

// reported picks, in the file's order, the metrics a run's result line
// carries: the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one. A listed metric the run did not measure is an error.
func (s *benchmarkSpec) reported(trace bool, measured map[string]metric) (map[string]metric, error) {
	list := s.EndToEnd
	if trace {
		list = s.PerLayer
	}
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s lists %s, which this run did not measure", specPath, m.Name)
		}
		out[m.Name] = v
	}
	return out, nil
}
