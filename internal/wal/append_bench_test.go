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

// TestCursorAllocs: committing a batch's delivery moves every cursor in
// place and logs one frame from a reused buffer, and an ack the cursor
// already covers is a lookup.
func TestCursorAllocs(t *testing.T) {
	m, _ := openTest(t, t.TempDir(), nil)
	defer m.Close()
	for _, name := range []string{"watch", "other"} {
		if err := m.AppendRegister(RegisterRecord{Name: name, DSL: testDSL}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AppendEdges(makeBatch(allocbudget.Runs+2, 1)); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	allocbudget.Check(t, "wal.Manager.Commit", func() {
		seq++
		if err := m.Commit(seq); err != nil {
			t.Fatal(err)
		}
	})
	allocbudget.Check(t, "wal.Manager.Ack/covered", func() {
		m.Ack("watch", "e:1,2,3", seq)
	})
	// Each ack is of the edge after the last one's, with a key of its own.
	keys := make([]string, allocbudget.Runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("e:%d,%d,%d", i, i+1, i+2)
	}
	n := 0
	allocbudget.Check(t, "wal.Manager.Ack/new key", func() {
		seq++
		m.Ack("watch", keys[n%len(keys)], seq)
		n++
	})
	if c := m.find("watch").cur; c.Seq != seq-1 || len(c.Keys) != 1 {
		t.Fatalf("cursor %+v after acking a key at position %d", c, seq)
	}
}
