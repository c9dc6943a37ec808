package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookFS is the real filesystem with its files' syncs counted and, once
// held and release are set, every write held until release is closed (held
// receives when the first one starts).
type hookFS struct {
	OSFS
	syncs         atomic.Int64
	held, release chan struct{}
}

func (h *hookFS) Create(path string) (File, error) {
	f, err := h.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	File
	fs *hookFS
}

func (f *hookFile) Write(p []byte) (int, error) {
	if f.fs.release != nil {
		select {
		case f.fs.held <- struct{}{}:
		default:
		}
		<-f.fs.release
	}
	return f.File.Write(p)
}

func (f *hookFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// TestGroupCommitSyncsAnIdleTail: under FsyncInterval, a frame the last
// append left unsynced is synced once the group-commit interval passes
// with nothing else appended — an edge batch through the appender, a
// control record through the wake it sends. The injected clock never moves,
// so no append finds a sync due on its own.
func TestGroupCommitSyncsAnIdleTail(t *testing.T) {
	for _, tc := range []struct {
		name   string
		append func(*Manager) error
	}{
		{"edge batch", func(m *Manager) error { return m.AppendEdges(makeBatch(4, 1)) }},
		{"control record", func(m *Manager) error { return m.AppendRegister(RegisterRecord{Name: "watch", DSL: shortDSL}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := &hookFS{}
			m, _ := openTest(t, t.TempDir(), func(o *Options) {
				o.FS, o.Fsync = fs, FsyncInterval
				o.Now = func() int64 { return 0 }
			})
			defer m.Close()
			before := m.Stats().Fsyncs
			if err := tc.append(m); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(time.Second)
			for m.Stats().Fsyncs == before {
				if time.Now().After(deadline) {
					t.Fatal("no sync within 1s of the last append: the tail waits for the next one")
				}
				time.Sleep(time.Millisecond)
			}
			if got, want := fs.syncs.Load(), int64(before)+1; got != want {
				t.Fatalf("%d file syncs, want %d", got, want)
			}
		})
	}
}

// TestFsyncOffNeverSyncsAnIdleTail: the timer belongs to FsyncInterval.
func TestFsyncOffNeverSyncsAnIdleTail(t *testing.T) {
	fs := &hookFS{}
	m, _ := openTest(t, t.TempDir(), func(o *Options) { o.FS = fs })
	defer m.Close()
	before := fs.syncs.Load()
	if err := m.AppendEdges(makeBatch(4, 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * groupCommitInterval)
	if got := fs.syncs.Load(); got != before {
		t.Fatalf("%d syncs under FsyncOff", got-before)
	}
}

// TestCloseJoinsTheAppendInFlight: Close waits for the batch being written,
// which then recovers, and returns with the appender gone.
func TestCloseJoinsTheAppendInFlight(t *testing.T) {
	dir := t.TempDir()
	fs := &hookFS{}
	m, _ := openTest(t, dir, func(o *Options) { o.FS = fs })
	fs.held, fs.release = make(chan struct{}, 1), make(chan struct{})
	m.AppendEdgesAsync(makeBatch(3, 1))
	<-fs.held
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while the batch was still being written")
	case <-time.After(20 * time.Millisecond):
	}
	close(fs.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-m.stopped:
	default:
		t.Fatal("the appender outlived Close")
	}
	m2, rec := openTest(t, dir, nil)
	defer m2.Close()
	if len(rec.Ops) != 1 || len(rec.Ops[0].Edges) != 3 {
		t.Fatalf("recovered %+v, want the one batch Close joined", rec.Ops)
	}
}

// TestAppendAfterCloseIsANoOp: the barrier of an append after Close
// returns nil at once, and no appender starts.
func TestAppendAfterCloseIsANoOp(t *testing.T) {
	m, _ := openTest(t, t.TempDir(), nil)
	if err := m.AppendEdges(makeBatch(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.AppendEdgesAsync(makeBatch(2, 10))() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("barrier after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the barrier of an append after Close blocked")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.batch != nil {
		t.Fatal("an append after Close started an appender")
	}
}

// TestConcurrentAppendsUnderGroupCommit drives batches, control records and
// emission notes from several goroutines while the group-commit timer
// fires between them; every batch must recover. Run it with -race.
func TestConcurrentAppendsUnderGroupCommit(t *testing.T) {
	dir := t.TempDir()
	fs := &hookFS{}
	m, _ := openTest(t, dir, func(o *Options) {
		o.FS, o.Fsync = fs, FsyncInterval
		o.Now = func() int64 { return 0 }
		o.EmittedEvery = 8
	})
	const writers, batches = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				id := uint64(w*batches+i) * 2
				barrier := m.AppendEdgesAsync(makeBatch(2, id))
				m.NoteEmitted("watch", fmt.Sprint(id), int64(id))
				if err := barrier(); err != nil {
					t.Errorf("batch %d: %v", id, err)
				}
				if i%10 == 0 {
					m.AppendAdvance(int64(id))
					time.Sleep(groupCommitInterval / 4)
				}
			}
		}()
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, rec := openTest(t, dir, nil)
	defer m2.Close()
	edges := 0
	for _, op := range rec.Ops {
		edges += len(op.Edges)
	}
	if edges != writers*batches*2 {
		t.Fatalf("recovered %d edges, want %d", edges, writers*batches*2)
	}
	if len(rec.Emitted) != writers*batches {
		t.Fatalf("recovered %d emitted keys, want %d", len(rec.Emitted), writers*batches)
	}
}
