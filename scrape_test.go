package streamworks_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/wal"
)

// stallingFS is the real filesystem whose next segment write, once armed,
// parks until released: a log write stuck on the disk.
type stallingFS struct {
	wal.OSFS
	mu      sync.Mutex
	armed   bool
	parked  chan struct{}
	release chan struct{}
}

func (fs *stallingFS) Create(path string) (wal.File, error) {
	f, err := fs.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return stallingFile{f, fs}, nil
}

type stallingFile struct {
	wal.File
	fs *stallingFS
}

func (f stallingFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	park := f.fs.armed
	f.fs.armed = false
	f.fs.mu.Unlock()
	if park {
		close(f.fs.parked)
		<-f.fs.release
	}
	return f.File.Write(p)
}

// within runs f and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s waited on the stalled log write", what)
	}
}

// TestScrapeNeverWaitsOnTheLog: with an edge-batch append parked in the
// disk write — ProcessBatch holding the engine while it waits to join it —
// the durability view and the merged snapshot still answer at once. They are
// readings of registry cells, which the append goroutine writes as it goes;
// neither takes the manager's lock or joins the append in flight.
func TestScrapeNeverWaitsOnTheLog(t *testing.T) {
	fs := &stallingFS{parked: make(chan struct{}), release: make(chan struct{})}
	eng := streamworks.NewSharded(streamworks.WithShards(2), streamworks.WithDataDir(t.TempDir()),
		streamworks.WithFsyncPolicy("off"), streamworks.WithWALFS(fs))
	defer eng.Close()
	var released sync.Once
	release := func() { released.Do(func() { close(fs.release) }) }
	defer release() // before Close, which waits for the parked batch
	w := acceptanceWorkload(t)
	registerAll(t, eng, w)

	fs.mu.Lock()
	fs.armed = true
	fs.mu.Unlock()
	ingested := make(chan error, 1)
	go func() { ingested <- eng.ProcessBatch(context.Background(), w.Edges[:500]) }()
	select {
	case <-fs.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch's log write never started")
	}

	within(t, time.Second, "Durability", func() {
		if d := eng.Durability(); d.Mode != "ok" || d.Frames == 0 {
			t.Errorf("durability while the write is parked: %+v", d)
		}
	})
	within(t, time.Second, "ObsSnapshot", func() {
		snap := eng.ObsSnapshot()
		if snap.Counter("wal_frames_appended", "") == 0 || snap.Gauge("registrations", "") != int64(len(w.Queries)) {
			t.Errorf("merged snapshot while the write is parked: %+v %+v", snap.Counters, snap.Gauges)
		}
	})
	release()
	if err := <-ingested; err != nil {
		t.Fatalf("ProcessBatch: %v", err)
	}
}
