package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type runLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
}

// selfCheck measures the benchmark's own noise the way its acceptance is
// judged: two sets of runs of every workload by this same binary, every run
// on another seed, the two sets taking turns at going first. Per workload and
// metric it reports both set medians, how much worse the second is than the
// first, the quartile spread of all runs as a share of their median, and the
// bound. It fails when a set difference or a spread exceeds the bound; the
// spread of setup_s is reported but, as in the acceptance, not held to its
// bound. The run-level metrics BENCHMARK.json lists without a bound (the
// timings this sandbox cannot hold steady) are reported the same way and
// never fail.
func selfCheck(spec *benchmarkSpec, runs, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	started := time.Now()
	// values[workload][metric][set] are the per-run values, in round order.
	values := map[string]map[string][2][]float64{}
	for r := 0; r < runs; r++ {
		for _, w := range spec.Workloads {
			for i := 0; i < 2; i++ {
				set := (i + r) % 2 // A first in even rounds, B first in odd ones
				seed := 2*r + set + 1
				metrics, err := runOnce(exe, w.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				if values[w.Name] == nil {
					values[w.Name] = map[string][2][]float64{}
				}
				for name, m := range metrics {
					sets := values[w.Name][name]
					sets[set] = append(sets[set], m.Value)
					values[w.Name][name] = sets
				}
				fmt.Fprintf(os.Stderr, "selfcheck: round %d/%d %s set %c seed %d done\n", r+1, runs, w.Name, 'A'+set, seed)
			}
		}
	}

	// The rows: every gated metric, then every ungated one an untraced run
	// measures.
	rows := append([]specMetric(nil), spec.EndToEnd...)
	for _, m := range spec.PerLayer {
		if _, ok := values[spec.Workloads[0].Name][m.Name]; ok {
			rows = append(rows, m)
		}
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "# Benchmark noise self-check\n\n")
	total := 2 * runs * len(spec.Workloads)
	fmt.Fprintf(&out, "`bash benchmark/run.sh --selfcheck --runs %d --seconds %d` on %s %s/%s, nproc=%d, GOMAXPROCS=2:\n%d runs in %.0f s, %.1f s a run.\n\n",
		runs, seconds, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), total, time.Since(started).Seconds(), time.Since(started).Seconds()/float64(total))
	fmt.Fprintf(&out, "Two sets (A, B) of %d runs per workload by one binary, every run on another seed (A: 1, 3, 5,\n"+
		"...; B: 2, 4, 6, ...); A goes first in odd rounds, B in even ones. `B worse` is how much worse\n"+
		"set B's median is than set A's, in the metric's own direction (negative: B was better);\n"+
		"`spread` is the distance between the first and third quartile of all %d runs as a share of\n"+
		"their median (Python's `statistics.quantiles(values, n=4)`); `2nd worse` is the median, over\n"+
		"the rounds, of how much worse the run that went second was than the one before it. A gated\n"+
		"metric must keep `B worse` and `spread` within its bound (the acceptance does not hold the\n"+
		"spread of `setup_s` to its bound, nor does this); a spread above a third of the bound is\n"+
		"marked `~`. Metrics without a bound are watched, not gated: BENCHMARK.json lists them as\n"+
		"per-layer metrics because this machine cannot repeat them within a tenth.\n\n", runs, 2*runs)
	fmt.Fprintf(&out, "| workload | metric | unit | median A | median B | B worse | spread | 2nd worse | bound | |\n")
	fmt.Fprintf(&out, "|---|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	failed := 0
	for _, w := range spec.Workloads {
		for _, m := range rows {
			sets := values[w.Name][m.Name]
			if len(sets[0]) != runs || len(sets[1]) != runs {
				return fmt.Errorf("%s did not report %s in every run", w.Name, m.Name)
			}
			a, b := median(sets[0]), median(sets[1])
			worse := worseBy(m.Better, a, b)
			spread := iqrShare(append(append([]float64(nil), sets[0]...), sets[1]...))
			var second []float64
			for r := 0; r < runs; r++ {
				first, then := sets[r%2][r], sets[(r+1)%2][r]
				second = append(second, worseBy(m.Better, first, then))
			}
			bound, mark := "—", "watched"
			if m.Bound > 0 {
				bound, mark = fmt.Sprintf("%.0f%%", 100*m.Bound), "ok"
				switch {
				case worse > m.Bound || (spread > m.Bound && m.Name != "setup_s"):
					mark = "FAIL"
					failed++
				case spread > m.Bound/3:
					mark = "~"
				}
			}
			fmt.Fprintf(&out, "| %s | %s | %s | %s | %s | %+.2f%% | %.2f%% | %+.2f%% | %s | %s |\n",
				w.Name, m.Name, m.Unit, sig(a), sig(b), 100*worse, 100*spread, 100*median(second), bound, mark)
		}
	}
	// The runs behind the table, set A's and set B's of each round.
	fmt.Fprintf(&out, "\n## Every run\n\nRound by round; within a round the set named first in the note above ran first.\n\n")
	for _, w := range spec.Workloads {
		fmt.Fprintf(&out, "`%s`\n\n| metric |", w.Name)
		for r := 0; r < runs; r++ {
			fmt.Fprintf(&out, " A%d | B%d |", r+1, r+1)
		}
		fmt.Fprintf(&out, "\n|---|")
		for r := 0; r < 2*runs; r++ {
			fmt.Fprintf(&out, "---:|")
		}
		fmt.Fprintln(&out)
		for _, m := range rows {
			fmt.Fprintf(&out, "| %s |", m.Name)
			sets := values[w.Name][m.Name]
			for r := 0; r < runs; r++ {
				fmt.Fprintf(&out, " %s | %s |", sig(sets[0][r]), sig(sets[1][r]))
			}
			fmt.Fprintln(&out)
		}
		fmt.Fprintln(&out)
	}
	fmt.Print(out.String())
	if err := os.WriteFile(noisePath, out.Bytes(), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d workload x metric pairs outside their bound", failed)
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, in the direction
// the metric counts as worse.
func worseBy(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// sig renders a value with five significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// runOnce runs one workload in a child process of this binary and returns
// every metric it measured: the all-metrics line, once the result line (the
// last line of its standard output) says the run was correct.
func runOnce(exe, workload string, seed, seconds int) (map[string]metric, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	var last, all string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(t, allMetricsPrefix); ok {
			all = rest
		} else if t != "" {
			last = t
		}
	}
	var line runLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !line.Correct || line.Failed > 0 {
		return nil, fmt.Errorf("run reported correct=%v failed=%d", line.Correct, line.Failed)
	}
	metrics := map[string]metric{}
	if err := json.Unmarshal([]byte(all), &metrics); err != nil {
		return nil, fmt.Errorf("all-metrics line: %w", err)
	}
	return metrics, nil
}
