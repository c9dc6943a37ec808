// Package wal is the durability layer for StreamWorks engines: a segmented
// write-ahead log on the ingest path that is also the only durable copy of
// the sliding window, and the emitted-set checkpointing that makes match
// delivery exactly-once across a crash boundary.
//
// The state of the system is a function of the edges inside the window, so
// its durable form is the suffix of the ingest log that still covers the
// window — there is no snapshot file and the Manager keeps no copy of the
// window in memory. A segment is the 8-byte magic SWWAL002 followed by
// frames in internal/wire's envelope (length, CRC32, record type); a torn
// tail — the partial frame a crash leaves behind — is detected and truncated
// at the last valid frame instead of poisoning recovery. The first frame of
// every segment is a manifest: the active registrations in order, the
// emitted set, the newest stream time, the effective retention and the
// expiry cutoff. After it come edge batches in wire's binary edge encoding,
// in arrival order, interleaved with query register/unregister records (DSL
// text plus registration options), explicit advances of stream time and
// incremental emitted-set checkpoints.
//
// The log follows stream time on a graph.Clock, as the engine's window does, so
// its expiry cutoff is the window's. A checkpoint (Manager.Snapshot, every
// Options.SnapshotEvery batches, and whenever the records behind a segment's
// manifest outgrow Options.SegmentBytes) rotates to a new segment, syncs its
// manifest, then deletes the oldest segments whose newest edge is below the
// cutoff. Recovery reads the oldest retained segment's manifest and replays
// every record after it in the order it was appended. Four rules hold
// throughout:
//
//   - Old segments are deleted only after the new segment's manifest has been
//     synced.
//   - Only a prefix of the segments is ever deleted.
//   - Recovery never replays an edge older than the recovered cutoff, and
//     emitted-set eviction uses the same cutoff, so a match evicted from the
//     emitted set can never be re-derived into the backlog.
//   - With retention 0 nothing is ever deleted and nothing is ever rewritten.
//
// Recovery replays through the ordinary engine paths: re-register the stored
// queries at the points of the stream where they were registered, re-apply
// the retained edges, and suppress every match whose (query, signature) key
// was already checkpointed as emitted. Matches that were emitted but not yet
// checkpointed when the process died are redelivered — the emitted-set is
// checkpointed one epoch behind live emission precisely so a match is never
// suppressed before it plausibly reached a subscriber. Crash recovery is
// therefore exactly-once under set semantics (no loss; bounded, dedupable
// redelivery by canonical signature) and strictly exactly-once across a
// graceful restart, where Close checkpoints everything.
//
// A directory written by another format version (a v1 snapshot file, or a
// segment whose complete header is not SWWAL002) is refused with
// ErrFormatVersion and left exactly as found.
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
	// FsyncAlways syncs after every appended frame.
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
	// EmittedEvery writes an emitted-set checkpoint frame once that many
	// mature, un-checkpointed emissions have accumulated. Zero defaults
	// to 256.
	EmittedEvery int
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
	if o.EmittedEvery <= 0 {
		o.EmittedEvery = 256
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
	EmittedTracked  uint64 `json:"emitted_tracked" metric:"wal_emitted_tracked"`
	Degraded        bool   `json:"degraded" metric:"wal_degraded"`
}
