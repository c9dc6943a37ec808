package gen

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the match-signature golden files from the current engine")

// TestMatchReportSignaturesGolden replays the canonical netflow and news
// benchmark workloads through a single engine and compares every exported
// match signature byte-for-byte against golden files captured before the
// flat-match refactor. This pins two things at once: the engine's match set
// (which matches are found) and the export-boundary signature format (how
// each match is named), so representation changes inside match/sjtree can
// never silently alter either.
func TestMatchReportSignaturesGolden(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
	}{
		{"netflow", BenchNetFlowWorkload(4000, 300, 30*time.Second)},
		{"news", BenchNewsWorkload(400, 15*time.Minute)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.w.Engine
			eng := core.New(&cfg)
			queries := make(map[string]*query.Graph, len(tc.w.Queries))
			for _, q := range tc.w.Queries {
				if _, err := eng.RegisterQuery(q); err != nil {
					t.Fatalf("RegisterQuery(%s): %v", q.Name(), err)
				}
				queries[q.Name()] = q
			}
			var lines []string
			for _, se := range tc.w.Edges {
				for _, ev := range eng.ProcessEdge(se) {
					r := export.BuildReport(ev, queries[ev.Query], eng.Graph().Graph())
					lines = append(lines, ev.Query+"\t"+r.Signature)
				}
			}
			if len(lines) == 0 {
				t.Fatalf("workload %s produced no matches; golden comparison would be vacuous", tc.name)
			}
			sort.Strings(lines)
			data := strings.Join(lines, "\n") + "\n"
			path := filepath.Join("testdata", "sigs_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update-golden to create): %v", err)
			}
			if string(want) != data {
				t.Fatalf("%s: match signatures differ from the pre-refactor golden (%d lines now, %d expected)",
					tc.name, len(lines), strings.Count(string(want), "\n"))
			}
		})
	}
}
