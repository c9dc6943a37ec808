// Command benchmark is the repository's one performance ledger: it generates
// a workload from a seed, drives the system under test through the public
// streamworks API, verifies the delivered match set and prints every metric
// by name. README.md in this directory is the manual.
//
//	bash benchmark/run.sh --workload netflow-local --seed 1 --seconds 17 --trace 0
//	bash benchmark/run.sh --workload news-served --trace 1     # per-layer metrics + span file
//	bash benchmark/run.sh --selfcheck                          # noise self-check, writes NOISE.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: netflow-local, manyq-shared, news-served or netflow-durable")
		seed      = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 0, "measured seconds, shared 3:3:3:3:3:8 by five saturation passes and the paced phase (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		update    = flag.Bool("update-digests", false, "record this run's match digest instead of checking it")
		selfcheck = flag.Bool("selfcheck", false, "run the noise self-check over every workload instead of one workload")
		runs      = flag.Int("runs", 5, "selfcheck: runs per set (two sets, alternating)")
	)
	flag.Parse()
	// All load comes from this one process on two cores: the engine (or the
	// daemon's shard workers) and the harness's own client share them.
	runtime.GOMAXPROCS(2)

	die := func(code int, args ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"benchmark:"}, args...)...)
		os.Exit(code)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		die(1, err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *selfcheck {
		if err := selfCheck(spec, *runs, *seconds); err != nil {
			die(1, err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		die(2, fmt.Sprintf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		die(2, "-seconds must be at least 1")
	}
	rate, err := spec.pacedRate(w.name)
	if err != nil {
		die(1, err)
	}
	printEnvironment()
	res, err := runWorkload(runConfig{
		w: w, pacedRate: rate, seed: *seed, seconds: *seconds, trace: *trace != 0, updateDigests: *update,
	})
	if err != nil {
		die(1, err)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	for _, w := range res.warnings {
		fmt.Fprintln(os.Stderr, "benchmark: warning:", w)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", p)
	}
	if !res.correct {
		// A wrong match set is not a measurement: no result line.
		os.Exit(1)
	}
	// Everything measured, for the self-check; then the result line, which
	// carries what BENCHMARK.json lists for this kind of run.
	all, _ := json.Marshal(res.metrics)
	fmt.Println(allMetricsPrefix + string(all))
	reported, err := spec.reported(*trace != 0, res.metrics)
	if err != nil {
		die(1, err)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   reported,
	})
	if err != nil {
		die(1, err)
	}
	fmt.Println(string(line))
}

// allMetricsPrefix starts the line that carries every metric of a run, gated
// or not, as one JSON object.
const allMetricsPrefix = "all metrics: "

// printEnvironment records what the numbers were taken on, and warns when
// the machine is already busy.
func printEnvironment() {
	env := fmt.Sprintf("environment: nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	load, ok := loadAverage()
	if ok {
		env += fmt.Sprintf(" load1=%.2f", load)
	}
	fmt.Println(env)
	if ok && load > 0.5*float64(runtime.NumCPU()) {
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load average %.2f exceeds half of %d CPUs; timings will be noisy\n", load, runtime.NumCPU())
	}
}
