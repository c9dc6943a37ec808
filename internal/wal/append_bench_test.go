package wal

import (
	"fmt"
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

// TestAppendEdgesAllocs: logging a batch allocates nothing, whatever the
// batch's size — not the hand-off to the appender, nothing per edge,
// attributes and all, and nothing for the frame.
func TestAppendEdgesAllocs(t *testing.T) {
	m, _ := openTest(t, t.TempDir(), nil)
	defer m.Close()
	batch := makeBatch(512, 1)
	if err := m.AppendEdges(batch); err != nil { // start the appender, grow the two scratch buffers
		t.Fatal(err)
	}
	allocbudget.Check(t, "wal.AppendEdges/512-edge batch", func() {
		if err := m.AppendEdges(batch); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNoteEmittedAllocs: noting a match builds its key in scratch; only a
// new key is kept, carved from the manager's slab chunks.
func TestNoteEmittedAllocs(t *testing.T) {
	m, _ := openTest(t, t.TempDir(), nil)
	defer m.Close()
	sigs := make([]string, allocbudget.Runs+1)
	for i := range sigs {
		sigs[i] = fmt.Sprintf("e:%d,%d,%d", 3*i, 3*i+1, 3*i+2)
	}
	i := 0
	allocbudget.Check(t, "wal.Manager.NoteEmitted/new key", func() {
		m.NoteEmitted("watch", sigs[i], int64(i))
		i++
	})
	allocbudget.Check(t, "wal.Manager.NoteEmitted/duplicate", func() {
		m.NoteEmitted("watch", sigs[0], 0)
	})
}
