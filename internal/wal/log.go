package wal

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/wire"
)

// segMagic identifies a StreamWorks WAL segment, version 2: the magic, one
// manifest frame, then records, all in internal/wire's envelope.
var segMagic = []byte("SWWAL002")

// segName formats the on-disk name for segment seq.
func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.wal", seq) }

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segmentSeqs picks the segment sequence numbers out of a directory
// listing, ascending.
func segmentSeqs(names []string) []uint64 {
	var seqs []uint64
	for _, n := range names {
		if seq, ok := parseSegName(n); ok {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// segLog is the append side of the segmented log: one open segment file and
// frame appends with the configured fsync policy. When to rotate is the
// Manager's decision, because a new segment starts with a manifest of the
// Manager's state. Not goroutine-safe; the Manager serializes access.
type segLog struct {
	fs       FS
	dir      string
	policy   FsyncPolicy
	interval int64 // ns
	now      func() int64

	seq  uint64
	f    File
	size int64
	// maxTS is the newest edge timestamp in the active segment: what decides,
	// once the segment is sealed, when it may be deleted.
	maxTS    int64
	lastSync int64
	// owed is set while FsyncInterval holds frames written since the last
	// sync: what the group-commit timer syncs once appends go quiet.
	owed bool
	buf  []byte // frame scratch, reused across appends

	// The log's counts, in the manager's registry; the appender and
	// the checkpoint code write them.
	frames, bytes, fsyncs, segments *obs.Counter
}

// rotate seals the active segment, fully synced, and starts segment seq+1
// with the given manifest as its first frame. The manifest is synced before
// rotate returns, whatever the fsync policy: deleting older segments is only
// safe behind a durable manifest.
func (l *segLog) rotate(manifest []byte) error {
	if err := l.close(); err != nil {
		return err
	}
	f, err := l.fs.Create(join(l.dir, segName(l.seq+1)))
	if err != nil {
		return err
	}
	l.buf = wire.AppendFrame(append(l.buf[:0], segMagic...), RecManifest, manifest)
	if _, err = f.Write(l.buf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.seq++
	l.size = int64(len(l.buf))
	l.maxTS = math.MinInt64
	l.lastSync = l.now()
	l.owed = false
	l.segments.Inc()
	l.frames.Inc()
	l.bytes.Add(uint64(len(l.buf)))
	l.fsyncs.Inc()
	return nil
}

// append writes one frame and applies the fsync policy.
func (l *segLog) append(rec byte, payload []byte) error {
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	l.buf = wire.AppendFrame(l.buf[:0], rec, payload)
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err != nil {
		return err
	}
	l.frames.Inc()
	l.bytes.Add(uint64(len(l.buf)))
	switch l.policy {
	case FsyncAlways:
		return l.sync()
	case FsyncInterval:
		if l.now()-l.lastSync >= l.interval {
			return l.sync()
		}
		l.owed = true
	}
	return nil
}

func (l *segLog) sync() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncs.Inc()
	l.lastSync = l.now()
	l.owed = false
	return nil
}

func (l *segLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if err == nil {
		l.fsyncs.Inc()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.owed = false
	return err
}
