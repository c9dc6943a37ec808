package wal

import (
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

func makeBatch(n int, base uint64) []graph.StreamEdge {
	out := make([]graph.StreamEdge, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, testEdge(base+uint64(i), int64(base+uint64(i))*1000))
	}
	return out
}

func BenchmarkAppendEdges512(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncOff, FsyncInterval, FsyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			dir := b.TempDir()
			m, _, err := Open(Options{Dir: dir, Fsync: policy, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			batch := makeBatch(512, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.AppendEdges(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(m.log.bytes.Value()) / int64(b.N))
		})
	}
}

// TestAppendEdgesAllocs: logging a batch costs what the hand-off to the
// worker costs, whatever the batch's size — nothing per edge, attributes
// and all, and nothing for the frame.
func TestAppendEdgesAllocs(t *testing.T) {
	m, _ := openTest(t, t.TempDir(), nil)
	defer m.Close()
	batch := makeBatch(512, 1)
	if err := m.AppendEdges(batch); err != nil { // grow the two scratch buffers
		t.Fatal(err)
	}
	allocbudget.Check(t, "wal.AppendEdges/512-edge batch", func() {
		if err := m.AppendEdges(batch); err != nil {
			t.Fatal(err)
		}
	})
}
