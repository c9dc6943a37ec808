package gen

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
)

// TestPublicAPISingleEngineMatchesGolden is the continuity guard for the
// public API redesign: replaying the canonical workloads through
// streamworks.New — the path every embedder and the benchmark harness use —
// must reproduce, signature for signature, the golden match sets captured
// before the redesign. Any silent semantic drift introduced by the sink-based
// emission path, the public wrappers, or future backends that reuse them
// fails this test byte-for-byte.
func TestPublicAPISingleEngineMatchesGolden(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
	}{
		{"netflow", BenchNetFlowWorkload(4000, 300, 30*time.Second)},
		{"news", BenchNewsWorkload(400, 15*time.Minute)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := streamworks.New(streamworks.WithEngineConfig(tc.w.Engine))
			defer eng.Close()
			ctx := context.Background()
			for _, q := range tc.w.Queries {
				if err := eng.RegisterQuery(ctx, q); err != nil {
					t.Fatalf("RegisterQuery(%s): %v", q.Name(), err)
				}
			}
			var lines []string
			sub, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
				lines = append(lines, m.Query+"\t"+m.Signature)
			}))
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			if err := eng.ProcessBatch(ctx, tc.w.Edges); err != nil {
				t.Fatalf("ProcessBatch: %v", err)
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			<-sub.Done()

			if len(lines) == 0 {
				t.Fatalf("workload %s produced no matches; golden comparison would be vacuous", tc.name)
			}
			sort.Strings(lines)
			data := strings.Join(lines, "\n") + "\n"
			want, err := os.ReadFile(filepath.Join("testdata", "sigs_"+tc.name+".golden"))
			if err != nil {
				t.Fatalf("reading pre-redesign golden: %v", err)
			}
			if string(want) != data {
				t.Fatalf("%s: public-API match signatures differ from the pre-redesign golden (%d lines now, %d expected)",
					tc.name, len(lines), strings.Count(string(want), "\n"))
			}
		})
	}
}
