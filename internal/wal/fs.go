package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem seam the WAL writes through. The production
// implementation is OSFS; the fault-injection harness substitutes one that
// fails on cue. Paths are always joined under the manager's data dir by the
// caller, so implementations treat them as opaque absolute paths.
type FS interface {
	MkdirAll(path string) error
	// Create truncates or creates the file for writing.
	Create(path string) (File, error)
	Open(path string) (io.ReadCloser, error)
	// ReadDir returns the names (not paths) of the directory's entries.
	ReadDir(path string) ([]string, error)
	Remove(path string) error
	Truncate(path string, size int64) error
}

// File is the writable handle the WAL appends frames through.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (OSFS) Create(path string) (File, error) { return os.Create(path) }

func (OSFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (OSFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// join is filepath.Join, aliased so wal code reads uniformly.
func join(dir, name string) string { return filepath.Join(dir, name) }
