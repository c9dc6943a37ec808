package wal_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/testutil/faultfs"
	"github.com/streamworks/streamworks/internal/wal"
)

// appenders counts the live appender goroutines.
func appenders() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "wal.(*Manager).appender(")
}

// TestAppendAfterWriteFailure: a write failure degrades the manager; the
// next append's barrier returns nil at once, and Close still stops the
// appender.
func TestAppendAfterWriteFailure(t *testing.T) {
	ffs := faultfs.New()
	m, _, err := wal.Open(wal.Options{Dir: t.TempDir(), FS: ffs, Fsync: wal.FsyncInterval, SnapshotEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	batch := []graph.StreamEdge{{Edge: graph.Edge{ID: 1, Source: 1, Target: 2, Type: "flow", Timestamp: 100}}}
	ffs.SetDiskFull(true)
	if err := m.AppendEdges(batch); err == nil {
		t.Fatal("an append to a full disk reported no error")
	}
	if !m.Stats().Degraded {
		t.Fatal("a write failure left the manager undegraded")
	}
	done := make(chan error, 1)
	go func() { done <- m.AppendEdgesAsync(batch)() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append after a write failure: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an append after a write failure blocked")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := appenders(); n != 0 {
		t.Fatalf("%d appender goroutine(s) outlived Close", n)
	}
}
