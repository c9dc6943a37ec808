package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/slab"
	"github.com/streamworks/streamworks/internal/wire"
)

// ErrFormatVersion is returned by Open for a data directory some other
// version of the log wrote. Open leaves such a directory exactly as found.
var ErrFormatVersion = errors.New("wal: data directory is not in the SWWAL002 format")

// Manager owns a data directory: the segments, the emitted-set and the
// checkpoint cycle. It keeps no copy of the window — the retained segments
// are the window — only what a manifest records plus one timestamp per
// segment. All methods are safe for concurrent use.
//
// Emission tracking is ack-based: NoteEmitted must be called only after a
// match has actually reached its consumer (a synchronous sink returned, or
// the serving tier flushed the report to the subscriber's socket). Noted
// therefore implies delivered, so entries are checkpointable immediately
// and a checkpointed match can be suppressed on recovery without risking
// loss. Matches delivered but not yet noted/checkpointed when the process
// dies are re-derived and redelivered — the bounded, signature-dedupable
// redelivery documented in the package comment.
type Manager struct {
	mu   sync.Mutex
	opts Options
	fs   FS
	dir  string
	log  segLog
	// encBuf is the edge-batch payload scratch, reused across appends.
	encBuf []byte
	// sealed lists the retained segments behind the active one, oldest
	// first, each with its newest edge timestamp.
	sealed []sealedSeg
	regs   []RegisterRecord
	// emitted maps match keys to span starts; unlogged are the entries noted
	// since the last RecEmitted frame or manifest. A key NoteEmitted adds is
	// built in keyBuf and, only when new, copied into keys' chunks: a chunk
	// lives until the last of its keys is evicted at a checkpoint, and
	// pins no slab of the delivery path the signature came from.
	emitted  map[string]int64
	unlogged []EmittedEntry
	keyBuf   []byte
	keys     slab.Strings
	// clock follows stream time as the engine's graph does — the edges and
	// advances logged, the effective retention — so the log deletes exactly
	// what the graph has expired: its cutoff.
	clock    graph.Clock
	batches  int
	degraded bool
	closed   bool

	// pending is set while an edge-batch append (AppendEdgesAsync) is in
	// flight: handed to the appender on batch, its outcome not yet received
	// from done. While it is set the appender owns log, encBuf and batches;
	// every method that touches those fields calls joinLocked first. The
	// appender runs from the first append to Close (stopped closes once it
	// has exited; wake arms its group-commit timer), and barrier is the
	// join every AppendEdgesAsync returns.
	pending bool
	batch   chan []graph.StreamEdge
	done    chan error
	wake    chan struct{}
	stopped chan struct{}
	barrier func() error

	// reg holds the manager's counts, the log's included: written where they
	// happen, read by Stats without the manager lock.
	reg                             *obs.Registry
	torn, appendErrors, checkpoints *obs.Counter
	emittedTracked, degradedGauge   *obs.Gauge
}

type sealedSeg struct {
	seq   uint64
	maxTS int64
}

// Recovery is what Open reconstructed from disk: the ordered operations to
// replay through an engine, plus the recovered emitted-set for backlog
// suppression.
type Recovery struct {
	// Ops are the recovered operations in replay order: the registrations
	// of the oldest retained segment's manifest, then every record after
	// it in the order it was appended, less the edges older than the
	// recovered cutoff.
	Ops []Op
	// Emitted maps checkpointed match keys (MatchKey) to span starts.
	Emitted map[string]int64
	// TornTail reports that a torn or corrupt tail was truncated.
	TornTail bool
}

// Open recovers whatever the data directory holds and returns a Manager
// appending to a fresh segment. The returned Recovery is never nil on
// success; an empty directory yields an empty one.
func Open(opts Options) (*Manager, *Recovery, error) {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	m := &Manager{
		opts:           opts,
		fs:             opts.FS,
		dir:            opts.Dir,
		emitted:        make(map[string]int64),
		clock:          graph.NewClock(opts.Retention, opts.Slack),
		reg:            reg,
		torn:           reg.Counter("wal_torn_tail_truncations", "", ""),
		appendErrors:   reg.Counter("wal_append_errors", "", ""),
		checkpoints:    reg.Counter("wal_snapshots_written", "", ""),
		emittedTracked: reg.Gauge("wal_emitted_tracked", "", ""),
		degradedGauge:  reg.Gauge("wal_degraded", "", ""),
	}
	m.barrier = m.join
	m.log = segLog{
		fs:       m.fs,
		dir:      m.dir,
		policy:   opts.Fsync,
		interval: int64(groupCommitInterval),
		now:      opts.Now,
		frames:   reg.Counter("wal_frames_appended", "", ""),
		bytes:    reg.Counter("wal_bytes_appended", "", ""),
		fsyncs:   reg.Counter("wal_fsyncs", "", ""),
		segments: reg.Counter("wal_segments_created", "", ""),
	}
	if err := m.fs.MkdirAll(m.dir); err != nil {
		return nil, nil, fmt.Errorf("wal: creating data dir: %w", err)
	}
	names, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	if err := m.checkFormat(names); err != nil {
		return nil, nil, err
	}

	rec := &Recovery{}
	stopped := false
	for i, seq := range segmentSeqs(names) {
		m.log.seq = seq
		if stopped {
			// Segments after a truncated one cannot be trusted to follow it.
			opts.Logf("wal: dropping segment %d after truncated predecessor", seq)
			m.fs.Remove(join(m.dir, segName(seq)))
			continue
		}
		stopped = m.replaySegment(seq, i == 0, rec)
	}
	// The first checkpoint starts the segment this process appends to and
	// deletes what expired while the log was closed.
	if err := m.checkpointLocked(); err != nil {
		return nil, nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	ops := rec.Ops[:0]
	for _, op := range rec.Ops {
		if op.Type == RecEdgeBatch {
			op.Edges = slices.DeleteFunc(op.Edges, func(e graph.StreamEdge) bool {
				return e.Edge.Timestamp < m.clock.Cutoff()
			})
			if len(op.Edges) == 0 {
				continue
			}
		}
		ops = append(ops, op)
	}
	rec.Ops = ops
	rec.Emitted = maps.Clone(m.emitted)
	rec.TornTail = m.torn.Value() > 0
	return m, rec, nil
}

// checkFormat refuses a directory holding anything a v1 log wrote — its
// snapshot file, or a segment with a complete header that is not segMagic —
// before Open has modified a byte. A header shorter than the magic is a
// segment torn at creation, in any version, and passes.
func (m *Manager) checkFormat(names []string) error {
	for _, name := range names {
		if name == "snapshot" {
			return fmt.Errorf("%w: %s holds a v1 snapshot file", ErrFormatVersion, m.dir)
		}
		if _, ok := parseSegName(name); !ok {
			continue
		}
		rc, err := m.fs.Open(join(m.dir, name))
		if err != nil {
			return fmt.Errorf("wal: opening %s: %w", name, err)
		}
		hdr := make([]byte, len(segMagic))
		_, err = io.ReadFull(rc, hdr)
		rc.Close()
		if err == nil && !bytes.Equal(hdr, segMagic) {
			return fmt.Errorf("%w: %s starts with %q", ErrFormatVersion, name, hdr)
		}
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("wal: reading %s: %w", name, err)
		}
	}
	return nil
}

// replaySegment decodes one segment into rec and the manager's state. It
// returns true when replay must stop: a torn or corrupt frame was found
// and the segment cut back to the last valid boundary. The segment's edge
// batches decode through one interner, so the attribute maps and strings
// they repeat are recovered once and shared (never mutated, as on the
// serving path).
func (m *Manager) replaySegment(seq uint64, root bool, rec *Recovery) (stop bool) {
	path := join(m.dir, segName(seq))
	rc, err := m.fs.Open(path)
	if err != nil {
		m.opts.Logf("wal: opening segment %d: %v", seq, err)
		return true
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		m.opts.Logf("wal: reading segment %d: %v", seq, err)
		return true
	}
	in := wire.NewInterner()
	maxTS := int64(math.MinInt64)
	off := min(len(segMagic), len(data))
	for off < len(data) {
		first := off == len(segMagic)
		frameRec, payload, n, err := wire.DecodeFrame(data[off:])
		if err == nil && (frameRec == RecManifest) != first {
			err = fmt.Errorf("%w: record type %d out of place", wire.ErrCorrupt, frameRec)
		}
		var op Op
		if err == nil {
			// A valid CRC over a payload that does not decode: nothing
			// after such a record can be applied consistently either.
			op, err = decodeOp(frameRec, payload, in)
		}
		if err != nil {
			m.opts.Logf("wal: segment %d offset %d: %v", seq, off, err)
			break
		}
		switch op.Type {
		case RecManifest:
			m.applyManifest(op.manifest)
			if root {
				for i := range op.manifest.Registrations {
					rec.Ops = append(rec.Ops, Op{Type: RecRegister, Register: &op.manifest.Registrations[i]})
				}
			}
		case RecEdgeBatch:
			for i := range op.Edges {
				ts := op.Edges[i].Edge.Timestamp
				maxTS = max(maxTS, int64(ts))
				m.clock.AdvanceTo(ts)
			}
		case RecRegister:
			m.applyRegister(*op.Register)
		case RecUnregister:
			m.regs = removeReg(m.regs, op.Name)
		case RecAdvance:
			m.clock.AdvanceTo(graph.Timestamp(op.TS))
		case RecEmitted:
			for _, e := range op.Emitted {
				m.emitted[e.Key] = e.SpanStart
			}
		}
		if op.Type != RecManifest {
			rec.Ops = append(rec.Ops, op)
		}
		off += n
	}
	if off <= len(segMagic) {
		// No manifest survives: the segment was torn as it was created and
		// holds nothing.
		m.torn.Inc()
		m.opts.Logf("wal: segment %d has no complete manifest; removing it", seq)
		if err := m.fs.Remove(path); err != nil {
			m.opts.Logf("wal: removing segment %d: %v", seq, err)
		}
		return true
	}
	m.sealed = append(m.sealed, sealedSeg{seq: seq, maxTS: maxTS})
	if off < len(data) {
		m.torn.Inc()
		m.opts.Logf("wal: segment %d has a torn or corrupt tail; truncating at byte %d", seq, off)
		if err := m.fs.Truncate(path, int64(off)); err != nil {
			m.opts.Logf("wal: truncating segment %d: %v", seq, err)
		}
		return true
	}
	return false
}

// applyManifest resets the manager to a manifest's state. Replaying a
// segment's predecessor leaves exactly this state but for the emitted-set,
// where the manifest is ahead: it holds entries no RecEmitted frame carried
// and lacks those evicted when it was written.
func (m *Manager) applyManifest(man *manifest) {
	m.regs = append(m.regs[:0], man.Registrations...)
	clear(m.emitted)
	for _, e := range man.Emitted {
		m.emitted[e.Key] = e.SpanStart
	}
	m.clock.Resume(time.Duration(man.Retention), graph.Timestamp(man.Newest), man.Newest != math.MinInt64,
		graph.Timestamp(man.Cutoff))
}

// applyRegister records an active registration and mirrors the engine's
// retention extension for the query's time window so the log never deletes
// an edge the engine still retains.
func (m *Manager) applyRegister(r RegisterRecord) {
	m.regs = append(removeReg(m.regs, r.Name), r)
	if q, err := query.ParseString(r.DSL); err == nil {
		m.clock.Widen(q.Window())
	}
}

func removeReg(regs []RegisterRecord, name string) []RegisterRecord {
	out := regs[:0]
	for _, r := range regs {
		if r.Name != name {
			out = append(out, r)
		}
	}
	return out
}

// checkpointLocked is the log's only maintenance step: evict what expired
// from the emitted set, seal the active segment and start the next one
// with a synced manifest of the current state, then delete the oldest
// segments whose newest edge has expired. What is below the clock's cutoff
// has expired: its edges are deleted with their segments and skipped by
// recovery, its emitted entries evicted. The cutoff never moves back (it is
// persisted in every manifest). The window is never rewritten; with zero
// retention nothing is deleted either.
func (m *Manager) checkpointLocked() error {
	cut := int64(m.clock.Cutoff())
	newest, _ := m.clock.Newest() // math.MinInt64 before any time
	man := manifest{
		Newest:        int64(newest),
		Retention:     int64(m.clock.Window()),
		Cutoff:        cut,
		Registrations: m.regs,
		Emitted:       make([]EmittedEntry, 0, len(m.emitted)),
	}
	for k, spanStart := range m.emitted {
		if spanStart < cut {
			// The match can no longer be re-derived: its suppression entry
			// is dead weight.
			delete(m.emitted, k)
			continue
		}
		man.Emitted = append(man.Emitted, EmittedEntry{Key: k, SpanStart: spanStart})
	}
	m.emittedTracked.Set(int64(len(m.emitted)))
	sortEntries(man.Emitted)
	payload, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("wal: encoding manifest: %w", err)
	}
	sealing := m.log.f != nil // false only for the segment Open starts
	if sealing {
		m.sealed = append(m.sealed, sealedSeg{seq: m.log.seq, maxTS: m.log.maxTS})
	}
	if err := m.log.rotate(payload); err != nil {
		return err
	}
	if sealing {
		m.checkpoints.Inc()
	}
	clear(m.unlogged)
	m.unlogged = m.unlogged[:0]
	m.batches = 0
	drop := 0
	for drop < len(m.sealed) && m.sealed[drop].maxTS < cut {
		if err := m.fs.Remove(join(m.dir, segName(m.sealed[drop].seq))); err != nil {
			// Only a prefix may go: what cannot be deleted keeps its successors.
			m.opts.Logf("wal: removing expired segment %d: %v", m.sealed[drop].seq, err)
			break
		}
		drop++
	}
	m.sealed = slices.Delete(m.sealed, 0, drop)
	return nil
}

// checkpointIfDueLocked checkpoints once SnapshotEvery batches have been
// appended since the last one or the records behind the active segment's
// manifest have outgrown SegmentBytes. Call after an append has been folded
// into the manager's state, so the manifest includes it.
func (m *Manager) checkpointIfDueLocked() error {
	due := m.log.size >= m.opts.SegmentBytes ||
		m.opts.SnapshotEvery > 0 && m.batches >= m.opts.SnapshotEvery
	if !due || m.degraded {
		return nil
	}
	if err := m.checkpointLocked(); err != nil {
		m.degradeLocked(err)
		return err
	}
	return nil
}

// NoteEmitted records that a match reached its consumer. Call only after
// delivery completed (sink returned / socket flushed); see the type
// comment for why that timing is what makes suppression safe. A match
// already noted costs a lookup and nothing more; a new one costs its key's
// bytes in the manager's slab chunks.
func (m *Manager) NoteEmitted(query, signature string, spanStart int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.degraded {
		return
	}
	m.keyBuf = appendMatchKey(m.keyBuf[:0], query, signature)
	if _, ok := m.emitted[string(m.keyBuf)]; ok {
		return
	}
	key := m.keys.Copy(m.keyBuf)
	m.emitted[key] = spanStart
	m.emittedTracked.Set(int64(len(m.emitted)))
	m.unlogged = append(m.unlogged, EmittedEntry{Key: key, SpanStart: spanStart})
	if len(m.unlogged) >= m.opts.EmittedEvery {
		m.checkpointEmittedLocked()
	}
}

// checkpointEmittedLocked appends a RecEmitted frame holding every noted
// entry not yet persisted. Close calls it last, once closed is set.
func (m *Manager) checkpointEmittedLocked() {
	m.joinLocked()
	if m.degraded || len(m.unlogged) == 0 {
		return
	}
	payload, err := encodeEmitted(m.unlogged)
	if err == nil {
		err = m.log.append(RecEmitted, payload)
	}
	if err != nil {
		m.degradeLocked(err)
		return
	}
	m.wakeLocked()
	clear(m.unlogged) // a stale key would pin its slab chunk
	m.unlogged = m.unlogged[:0]
	m.checkpointIfDueLocked()
}

// joinLocked waits for the in-flight asynchronous append, if any, and folds
// its outcome into the manager: a write failure degrades, the clock
// follows the batch, and a batch that brought a checkpoint due triggers it
// here (a checkpoint reads state the appender must not, so it runs on the
// joining side). Every method that reads or writes log, encBuf or batches
// must call this first.
func (m *Manager) joinLocked() error {
	if !m.pending {
		return nil
	}
	err := <-m.done
	m.pending = false
	if err != nil {
		m.degradeLocked(err)
		return err
	}
	m.clock.AdvanceTo(graph.Timestamp(m.log.maxTS))
	return m.checkpointIfDueLocked()
}

// degradeLocked flips to in-memory mode after a write failure.
func (m *Manager) degradeLocked(err error) {
	if m.degraded {
		return
	}
	m.degraded = true
	m.degradedGauge.Set(1)
	m.appendErrors.Inc()
	m.opts.Logf("wal: write failed, degrading to in-memory mode (durability lost): %v", err)
	if m.log.f != nil {
		m.log.f.Close()
		m.log.f = nil
	}
}

// Registry returns the manager's metric registry. Snapshots are safe from
// any goroutine.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Stats returns the cumulative durability counters: a view of the registry,
// which the appender and the checkpoint code write as they go. It
// takes no lock and joins nothing, so it never waits on an append in flight.
func (m *Manager) Stats() Stats {
	var st Stats
	obs.Fill(&st, m.reg.Snapshot(), "")
	return st
}
