// Command bench is the repo's core-engine benchmark harness: it replays the
// canonical netflow and news workloads through the public streamworks API —
// streamworks.New for the single engine, streamworks.NewSharded for the
// sharded front-end — under testing.Benchmark with allocation accounting,
// and writes the results as JSON, so the numbers tracked across PRs measure
// exactly the surface users program against (push subscriptions included).
// BENCH_core.json at the repo root is produced by this command; CI runs a
// short configuration of it informationally on every push, and
// internal/gen's TestPublicAPISingleEngineMatchesGolden pins the measured
// path's match sets to the pre-redesign goldens.
//
//	bench -workload netflow -edges 25000 -out BENCH_core.json
//	bench -workload all -shards 0,4 -benchtime 2s
//	bench -workload drift               # frozen vs adaptive re-planning, post-drift edges/s
//	bench -workload many-queries -queries 200 -out BENCH_mqo.json   # shared-plan MQO win
//	bench -baseline old.json -out BENCH_core.json   # embed a prior run + deltas
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/gen"
)

type report struct {
	GeneratedAt  string                  `json:"generated_at"`
	GoVersion    string                  `json:"go_version"`
	GOOS         string                  `json:"goos"`
	GOARCH       string                  `json:"goarch"`
	NumCPU       int                     `json:"num_cpu"`
	GOMAXPROCS   int                     `json:"gomaxprocs"`
	Note         string                  `json:"note,omitempty"`
	Results      []gen.BenchResult       `json:"results"`
	DriftResults []gen.DriftBenchResult  `json:"drift_results,omitempty"`
	MQOResults   []gen.MQOBenchResult    `json:"mqo_results,omitempty"`
	ObsOverhead  []gen.ObsOverheadResult `json:"obs_overhead,omitempty"`
	Baseline     *report                 `json:"baseline,omitempty"`
	Comparison   []comparison            `json:"comparison,omitempty"`
}

// comparison pairs one current result with the baseline result of the same
// (workload, engine) and reports the two acceptance numbers tracked across
// PRs: the allocation reduction and the throughput gain.
type comparison struct {
	Workload            string  `json:"workload"`
	Engine              string  `json:"engine"`
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
	AllocsReductionPct  float64 `json:"allocs_reduction_pct"`
	BaselineEdgesPerSec float64 `json:"baseline_edges_per_sec"`
	EdgesPerSec         float64 `json:"edges_per_sec"`
	EdgesPerSecGainPct  float64 `json:"edges_per_sec_gain_pct"`
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to replay: netflow, news, drift, obs-overhead, many-queries or all (many-queries is its own lane, not part of all)")
		edges     = flag.Int("edges", 25_000, "approximate edges per workload replay")
		hosts     = flag.Int("hosts", 1000, "netflow host count")
		window    = flag.Duration("window", 30*time.Second, "query time window (netflow; news uses 10x)")
		shards    = flag.String("shards", "0", "comma-separated shard counts to benchmark (0 = single engine)")
		benchtime = flag.String("benchtime", "", "testing benchtime, e.g. 2s or 5x (default 1s)")
		out       = flag.String("out", "", "write the JSON report to this file (default stdout)")
		baseline  = flag.String("baseline", "", "embed a prior report as the baseline and compute deltas")
		note      = flag.String("note", "", "free-form note recorded in the report")
		driftRuns = flag.Int("drift-runs", 3, "replays per drift configuration (best post-drift throughput is reported)")

		queries = flag.Int("queries", 200, "standing query variants for -workload many-queries")
		procs   = flag.String("procs", "1", "comma-separated GOMAXPROCS lanes for -workload many-queries (values above NumCPU measure scheduler pressure, not parallel speedup)")
		mqoRuns = flag.Int("mqo-runs", 2, "replays per many-queries configuration (best throughput is reported)")
	)
	testing.Init() // registers test.* flags so -benchtime can be forwarded
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			log.Fatalf("bench: -benchtime %q: %v", *benchtime, err)
		}
	}

	var workloads []gen.Workload
	runDrift, runObs, runMQO := false, false, false
	switch *workload {
	case "many-queries":
		runMQO = true
	case "netflow":
		workloads = []gen.Workload{gen.BenchNetFlowWorkload(*edges, *hosts, *window)}
	case "news":
		workloads = []gen.Workload{gen.BenchNewsWorkload(*edges, 10**window)}
	case "drift":
		runDrift = true
	case "obs-overhead":
		runObs = true
	case "all":
		workloads = []gen.Workload{
			gen.BenchNetFlowWorkload(*edges, *hosts, *window),
			gen.BenchNewsWorkload(*edges, 10**window),
		}
		runDrift = true
		runObs = true
	default:
		log.Fatalf("bench: unknown workload %q (want netflow, news, drift, obs-overhead, many-queries or all)", *workload)
	}
	shardCounts, err := parseShards(*shards)
	if err != nil {
		log.Fatalf("bench: %v", err)
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Note:        *note,
	}
	for _, w := range workloads {
		for _, sc := range shardCounts {
			res, err := gen.BenchWorkload(w, sc)
			if err != nil {
				log.Fatalf("bench: %s: %v", w.Name, err)
			}
			fmt.Fprintf(os.Stderr, "%-8s %-10s %8d edges/op  %10.0f edges/s  %9d allocs/op  %11d B/op  %d matches\n",
				res.Workload, res.Engine, res.EdgesPerOp, res.EdgesPerSec, res.AllocsPerOp, res.BytesPerOp, res.Matches)
			rep.Results = append(rep.Results, res)
		}
	}
	if runDrift {
		// The drift benchmark is its own harness: the same workload replayed
		// with the plan frozen at registration and with adaptive re-planning
		// on, timing the post-drift segment separately. The two runs must
		// detect the identical match set — the hot swap is a pure
		// performance lever.
		dw := gen.BenchDriftWorkload(*edges, *hosts, *window)
		for _, sc := range shardCounts {
			frozen, fset, err := gen.BenchDrift(dw, sc, false, *driftRuns)
			if err != nil {
				log.Fatalf("bench: drift frozen: %v", err)
			}
			adaptive, aset, err := gen.BenchDrift(dw, sc, true, *driftRuns)
			if err != nil {
				log.Fatalf("bench: drift adaptive: %v", err)
			}
			if !fset.Equal(aset) {
				log.Fatalf("bench: drift match sets diverge: frozen %d vs adaptive %d", len(fset), len(aset))
			}
			for _, res := range []gen.DriftBenchResult{frozen, adaptive} {
				fmt.Fprintf(os.Stderr, "%-8s %-10s %-9s %8d edges  %10.0f post-drift edges/s  %10.0f total edges/s  %2d replans  %d matches\n",
					res.Workload, res.Engine, res.Mode, res.Edges, res.PostDriftEdgesPerSec, res.TotalEdgesPerSec, res.Replans, res.Matches)
			}
			rep.DriftResults = append(rep.DriftResults, frozen, adaptive)
		}
	}
	if runObs {
		// The observability overhead lane replays one workload three times —
		// instrumentation off, histograms on, histograms plus the sampled
		// trace ring — and reports the edges/s regression of each mode
		// against the first. The acceptance budget is ≤3% for "enabled".
		ow := gen.BenchNetFlowWorkload(*edges, *hosts, *window)
		for _, sc := range shardCounts {
			results, err := gen.BenchObsOverhead(ow, sc)
			if err != nil {
				log.Fatalf("bench: obs overhead: %v", err)
			}
			for _, res := range results {
				fmt.Fprintf(os.Stderr, "%-8s %-10s obs=%-8s %10.0f edges/s  %+5.1f%% overhead  %d matches\n",
					res.Workload, res.Engine, res.Mode, res.EdgesPerSec, res.OverheadPct, res.Matches)
			}
			rep.ObsOverhead = append(rep.ObsOverhead, results...)
		}
	}
	if runMQO {
		// The multi-query-optimization lane: one workload standing under
		// hundreds of generated query variants, replayed per-query and with
		// the shared evaluation DAG, per GOMAXPROCS lane. The two modes must
		// detect the identical match set — sharing is a pure performance
		// lever; a divergence is a correctness bug and fails the run.
		procCounts, err := parseShards(*procs)
		if err != nil {
			log.Fatalf("bench: -procs: %v", err)
		}
		mw := gen.BenchManyQueriesWorkload(*queries, *edges, *hosts, *window)
		for _, p := range procCounts {
			if p < 1 {
				log.Fatalf("bench: -procs values must be >= 1")
			}
			prev := runtime.GOMAXPROCS(p)
			for _, sc := range shardCounts {
				perQuery, pset, err := gen.BenchManyQueries(mw, sc, false, *mqoRuns)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					log.Fatalf("bench: many-queries per-query: %v", err)
				}
				shared, sset, err := gen.BenchManyQueries(mw, sc, true, *mqoRuns)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					log.Fatalf("bench: many-queries shared: %v", err)
				}
				if !pset.Equal(sset) {
					runtime.GOMAXPROCS(prev)
					log.Fatalf("bench: many-queries match sets diverge: per-query %d vs shared %d", len(pset), len(sset))
				}
				for _, res := range []gen.MQOBenchResult{perQuery, shared} {
					fmt.Fprintf(os.Stderr, "%-12s %-10s %-9s procs=%d %4d queries %8d edges  %10.0f edges/s  %12d searches  %4d dag-nodes (%d shared, %d hits)  %d matches\n",
						res.Workload, res.Engine, res.Mode, res.GOMAXPROCS, res.Queries, res.Edges,
						res.EdgesPerSec, res.LocalSearches, res.DAGNodes, res.DAGSharedNodes, res.SharedHits, res.Matches)
				}
				rep.MQOResults = append(rep.MQOResults, perQuery, shared)
			}
			runtime.GOMAXPROCS(prev)
		}
	}
	if *baseline != "" {
		prior, err := loadReport(*baseline)
		if err != nil {
			log.Fatalf("bench: loading baseline: %v", err)
		}
		// Keep the embedded baseline flat: deltas are always against the
		// directly preceding run, not a chain of runs.
		prior.Baseline, prior.Comparison = nil, nil
		rep.Baseline = prior
		rep.Comparison = compare(prior.Results, rep.Results)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("bench: encoding report: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatalf("bench: writing %s: %v", *out, err)
	}
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid shard count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shard counts in %q", s)
	}
	return out, nil
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compare(base, cur []gen.BenchResult) []comparison {
	var out []comparison
	for _, c := range cur {
		for _, b := range base {
			if b.Workload != c.Workload || b.Engine != c.Engine {
				continue
			}
			cmp := comparison{
				Workload:            c.Workload,
				Engine:              c.Engine,
				BaselineAllocsPerOp: b.AllocsPerOp,
				AllocsPerOp:         c.AllocsPerOp,
				BaselineEdgesPerSec: b.EdgesPerSec,
				EdgesPerSec:         c.EdgesPerSec,
			}
			if b.AllocsPerOp > 0 {
				cmp.AllocsReductionPct = 100 * (1 - float64(c.AllocsPerOp)/float64(b.AllocsPerOp))
			}
			if b.EdgesPerSec > 0 {
				cmp.EdgesPerSecGainPct = 100 * (float64(c.EdgesPerSec)/b.EdgesPerSec - 1)
			}
			out = append(out, cmp)
			break
		}
	}
	return out
}
