// Package faultfs is the fault-injection side of the durability harness:
// a wal.FS that writes through to a real directory but fails on cue.
// Tests use it to produce exactly the disk pathologies the WAL must
// survive — short writes, fsync errors, disk-full, torn final frames —
// and to simulate a crash point (CrashNow) after which the old manager
// can no longer touch the directory and a fresh engine may recover it.
package faultfs

import (
	"errors"
	"io"
	"sync"

	"github.com/streamworks/streamworks/internal/wal"
)

var (
	// ErrInjected is returned by writes that hit an armed write budget.
	ErrInjected = errors.New("faultfs: injected write error")
	// ErrDiskFull is returned by writes while disk-full mode is armed.
	ErrDiskFull = errors.New("faultfs: no space left on device")
	// ErrCrashed is returned by every operation after CrashNow.
	ErrCrashed = errors.New("faultfs: crashed")
)

// FS wraps the real filesystem with injectable failures. The zero value is
// not usable; call New.
type FS struct {
	real wal.FS

	mu       sync.Mutex
	crashed  bool
	fsyncErr error
	diskFull bool
	// writeBudget is the number of bytes writes may still persist before
	// failing; -1 means unlimited. A write that crosses the boundary
	// persists only the remaining budget — a short write leaving a torn
	// frame on disk.
	writeBudget int64
}

// New returns a write-through FS over the real filesystem with no faults
// armed.
func New() *FS {
	return &FS{real: wal.OSFS{}, writeBudget: -1}
}

// CrashNow freezes the filesystem: every subsequent operation through it
// fails with ErrCrashed. The files already on disk are untouched, exactly
// like the page cache surviving a SIGKILL, so the directory can be
// reopened with the real filesystem to simulate a post-crash restart while
// the "dead" writer can no longer interleave writes with the recovering
// one.
func (f *FS) CrashNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
}

// FailFsync arms (or with nil disarms) an error for every Sync call.
func (f *FS) FailFsync(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fsyncErr = err
}

// SetDiskFull arms or disarms disk-full mode: writes fail with ErrDiskFull
// without persisting anything.
func (f *FS) SetDiskFull(full bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.diskFull = full
}

// SetWriteBudget allows n more bytes to persist; the write that crosses
// the boundary is short (its prefix reaches disk) and returns ErrInjected.
// Negative disarms.
func (f *FS) SetWriteBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget = n
}

func (f *FS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *FS) MkdirAll(path string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.real.MkdirAll(path)
}

func (f *FS) Create(path string) (wal.File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	file, err := f.real.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FS) Open(path string) (io.ReadCloser, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.real.Open(path)
}

func (f *FS) ReadDir(path string) ([]string, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.real.ReadDir(path)
}

func (f *FS) Remove(path string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.real.Remove(path)
}

func (f *FS) Truncate(path string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.real.Truncate(path, size)
}

type faultFile struct {
	fs *FS
	f  wal.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	if ff.fs.crashed {
		ff.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	if ff.fs.diskFull {
		ff.fs.mu.Unlock()
		return 0, ErrDiskFull
	}
	budget := ff.fs.writeBudget
	if budget >= 0 {
		if int64(len(p)) > budget {
			ff.fs.writeBudget = 0
			ff.fs.mu.Unlock()
			n, _ := ff.f.Write(p[:budget])
			return n, ErrInjected
		}
		ff.fs.writeBudget -= int64(len(p))
	}
	ff.fs.mu.Unlock()
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	crashed, fsyncErr := ff.fs.crashed, ff.fs.fsyncErr
	ff.fs.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	if fsyncErr != nil {
		return fsyncErr
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
