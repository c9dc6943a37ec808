// Package wal is the durability layer for StreamWorks engines: a segmented
// write-ahead log on the ingest path that is also the only durable copy of
// the sliding window, and the delivery cursors that make match delivery
// exactly-once across a crash boundary.
//
// The state of the system is a function of the edges inside the window, so
// its durable form is the suffix of the ingest log that still covers the
// window — there is no snapshot file and the Manager keeps no copy of the
// window in memory. A segment is the 8-byte magic SWWAL003 followed by
// frames in internal/wire's envelope (length, CRC32, record type), every
// payload in wire's binary field encoding; a torn tail — the partial frame
// a crash leaves behind — is truncated at the last valid frame instead of
// poisoning recovery. The first frame of every segment is a manifest: the
// active registrations in order, each with its delivery cursor, the log
// position of the last edge logged, the newest stream time, the effective
// retention and the expiry cutoff. After it come edge batches in wire's
// binary edge encoding, in arrival order, interleaved with query
// register/unregister records, explicit advances of stream time and cursor
// frames.
//
// The log follows stream time on a graph.Clock, as the engine's window does, so
// its expiry cutoff is the window's. A checkpoint (Manager.Snapshot, every
// Options.SnapshotEvery batches, and whenever the records behind a segment's
// manifest outgrow Options.SegmentBytes) rotates to a new segment, syncs its
// manifest, then deletes the oldest segments whose newest edge is below the
// cutoff: only a prefix, only once the new manifest is synced, and nothing
// with retention 0. Recovery reads the oldest retained segment's manifest
// and replays every record after it in the order it was appended.
//
// Every logged edge has a log position, counted from 1 in append order
// across segments and restarts. An engine completes a match when the
// match's last edge is applied, whatever its plan, so what a query has
// delivered is a prefix of the positions of the edges completing its
// matches: its Cursor. Cursors move by Commit (once a batch's synchronous
// sinks have returned) or Ack (one match, once the serving tier has flushed
// it), and reach the log in at most one cursor frame per batch and in every
// manifest: O(queries), whatever the match count. Recovery suppresses every
// re-derived match its query's cursor covers; one delivered but not yet
// committed when the process died is redelivered, never lost. Crash
// recovery is therefore exactly-once under set semantics (bounded,
// dedupable redelivery by canonical signature) and strictly exactly-once
// across a graceful restart, where Close logs every cursor.
//
// A directory written by another format version (a v1 snapshot file, or a
// segment whose complete header is not SWWAL003, such as a v2 log's
// SWWAL002) is refused with ErrFormatVersion and left exactly as found.
//
// All file access goes through the FS seam so the fault-injection harness
// (internal/testutil/faultfs) can exercise short writes, fsync errors,
// torn final frames and disk-full without touching a real kernel. Any
// write error degrades the manager: it stops touching the disk, keeps
// serving from memory, and reports Degraded so the serving tier can
// surface `durability: degraded` instead of taking down ingest.
package wal

import (
	"fmt"
	"strings"
	"time"
)

// FsyncPolicy controls when appended frames are forced to stable storage.
// Every append always flushes to the file descriptor, so the OS page cache
// preserves the log across a process crash (SIGKILL) under any policy;
// fsync only widens the guarantee to power loss.
type FsyncPolicy int

const (
	// FsyncInterval group-commits: appended frames wait at most
	// groupCommitInterval for a sync. The default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every appended frame but cursor frames,
	// which wait for a sync as under FsyncInterval.
	FsyncAlways
	// FsyncOff never syncs; durability rides on the OS page cache alone.
	FsyncOff
)

// groupCommitInterval is how long FsyncInterval lets appended frames wait
// for a sync. An append syncs once the last sync is this old; frames an
// append leaves unsynced arm the appender's timer, which syncs them this
// long after if no later append has.
const groupCommitInterval = 50 * time.Millisecond

// ParseFsyncPolicy parses the operator-facing policy names.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off", "none":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "interval"
	}
}

// Options configures a Manager.
type Options struct {
	// Dir is the data directory. Created if absent.
	Dir string
	// FS is the filesystem seam; nil uses the real OS filesystem.
	FS FS
	// Fsync is the sync policy for appended frames.
	Fsync FsyncPolicy
	// SegmentBytes checkpoints once the records appended to the active
	// segment behind its manifest reach this size. Zero defaults to 8 MiB.
	SegmentBytes int64
	// SnapshotEvery checkpoints (new segment, expired segments deleted)
	// every N appended edge batches, which bounds how far beyond the window
	// recovery replays. Zero defaults to 4096; negative leaves checkpoints
	// to SegmentBytes and Snapshot.
	SnapshotEvery int
	// Retention mirrors the engine's sliding-window width so segments
	// expire in lockstep with the window. Zero retains every edge.
	Retention time.Duration
	// Slack mirrors the engine's out-of-order tolerance.
	Slack time.Duration
	// Now supplies wall-clock nanoseconds for the group-commit timer.
	// Nil uses time.Now. The WAL is not on the deterministic-output path,
	// so real time is fine here.
	Now func() int64
	// Logf receives recovery and degradation warnings. Nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.Now == nil {
		o.Now = func() int64 { return time.Now().UnixNano() }
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats are the manager's cumulative durability counters: a view of its
// registry (Manager.Stats), which /v1/metrics and the Prometheus endpoint
// render too.
type Stats struct {
	Frames          uint64 `json:"frames_appended" metric:"wal_frames_appended"`
	Bytes           uint64 `json:"bytes_appended" metric:"wal_bytes_appended"`
	Fsyncs          uint64 `json:"fsyncs" metric:"wal_fsyncs"`
	Segments        uint64 `json:"segments_created" metric:"wal_segments_created"`
	Snapshots       uint64 `json:"snapshots_written" metric:"wal_snapshots_written"`
	TornTruncations uint64 `json:"torn_tail_truncations" metric:"wal_torn_tail_truncations"`
	AppendErrors    uint64 `json:"append_errors" metric:"wal_append_errors"`
	Degraded        bool   `json:"degraded" metric:"wal_degraded"`
}
