package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
var ErrFormatVersion = errors.New("wal: data directory is not in the SWWAL003 format")

// Manager owns a data directory: the segments, the delivery cursors and
// the checkpoint cycle. It keeps no copy of the window — the retained
// segments are the window — only what a manifest records plus one
// timestamp per segment. All methods are safe for concurrent use.
//
// A cursor moves only once a match has actually reached its consumer: the
// caller commits a position after its synchronous sinks returned, or acks
// a match after the serving tier flushed it to the subscriber's socket. A
// covered match can therefore be suppressed on recovery without risking
// loss. Matches delivered but not yet committed when the process dies are
// re-derived and redelivered — the bounded, signature-dedupable
// redelivery documented in the package comment.
type Manager struct {
	mu   sync.Mutex
	opts Options
	fs   FS
	dir  string
	log  segLog
	// encBuf is the edge-batch payload scratch, reused across appends;
	// recBuf the manifest, cursor-frame and acked-key scratch, used under
	// the lock. keys holds the acked keys the cursors keep.
	encBuf, recBuf []byte
	keys           slab.Strings
	// sealed lists the retained segments behind the active one, oldest
	// first, each with its newest edge timestamp.
	sealed []sealedSeg
	regs   []registration
	// seq is the log position of the last edge logged (edges are numbered
	// from 1 in the order they are appended; the appender advances it).
	// all is the newest position Commit moved every cursor to, and before
	// any the last position recovered.
	seq, all uint64
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
	degradedGauge                   *obs.Gauge
}

type sealedSeg struct {
	seq   uint64
	maxTS int64
}

// Recovery is what Open reconstructed from disk: the ordered operations to
// replay through an engine, plus each registration's delivery cursor, by
// which replay tells the matches it re-derives that were delivered from
// those that were not.
type Recovery struct {
	// Ops are the recovered operations in replay order: the registrations
	// of the oldest retained segment's manifest, then every record after
	// it in the order it was appended but the cursor frames, which are
	// folded into Cursors.
	Ops []Op
	// Cursors maps each recovered registration to its delivery cursor.
	Cursors map[string]Cursor
	// Seq is the log position of the last edge the log holds: the next
	// edge appended is Seq+1.
	Seq uint64
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
		opts:          opts,
		fs:            opts.FS,
		dir:           opts.Dir,
		clock:         graph.NewClock(opts.Retention, opts.Slack),
		reg:           reg,
		torn:          reg.Counter("wal_torn_tail_truncations", "", ""),
		appendErrors:  reg.Counter("wal_append_errors", "", ""),
		checkpoints:   reg.Counter("wal_snapshots_written", "", ""),
		degradedGauge: reg.Gauge("wal_degraded", "", ""),
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
	// Edges below the cutoff had left the window: replay skips them, each
	// run of kept edges keeping its log positions.
	cut := m.clock.Cutoff()
	ops := make([]Op, 0, len(rec.Ops))
	for _, op := range rec.Ops {
		if op.Type != RecEdgeBatch {
			ops = append(ops, op)
			continue
		}
		for i := 0; i < len(op.Edges); {
			j := i
			for j < len(op.Edges) && op.Edges[j].Edge.Timestamp >= cut {
				j++
			}
			if j > i {
				ops = append(ops, Op{Type: RecEdgeBatch, Edges: op.Edges[i:j], Seq: op.Seq + uint64(i)})
			}
			i = j + 1 // edges[j], if any, expired
		}
	}
	rec.Ops = ops
	m.all = m.seq
	rec.Seq = m.seq
	rec.Cursors = make(map[string]Cursor, len(m.regs))
	for _, r := range m.regs {
		rec.Cursors[r.Name] = Cursor{Seq: r.cur.Seq, Keys: slices.Clone(r.cur.Keys)}
	}
	rec.TornTail = m.torn.Value() > 0
	return m, rec, nil
}

// checkFormat refuses a directory holding anything another version of the
// log wrote — a v1 snapshot file, or a segment with a complete header that
// is not segMagic — before Open has modified a byte. A header shorter than
// the magic is a segment torn at creation, in any version, and passes.
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
					rec.Ops = append(rec.Ops, Op{Type: RecRegister, Register: &op.manifest.Registrations[i].RegisterRecord})
				}
			}
		case RecEdgeBatch:
			op.Seq = m.seq + 1
			m.seq += uint64(len(op.Edges))
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
		case RecCursor:
			m.applyCursors(op.cursors)
		}
		if op.Type != RecManifest && op.Type != RecCursor {
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
// segment's predecessor leaves exactly this state but for cursors acked
// and not yet committed when the manifest was written, which it holds.
func (m *Manager) applyManifest(man *manifest) {
	m.regs = append(m.regs[:0], man.Registrations...)
	m.seq = man.Seq
	m.clock.Resume(time.Duration(man.Retention), graph.Timestamp(man.Newest), man.Newest != math.MinInt64,
		graph.Timestamp(man.Cutoff))
}

// applyRegister records an active registration, its cursor at the start,
// and mirrors the engine's retention extension for the query's time window
// so the log never deletes an edge the engine still retains.
func (m *Manager) applyRegister(r RegisterRecord) {
	m.regs = append(removeReg(m.regs, r.Name), registration{RegisterRecord: r})
	if q, err := query.ParseString(r.DSL); err == nil {
		m.clock.Widen(q.Window())
	}
}

// applyCursors replays a RecCursor frame, as commitLocked moved the cursors
// it records.
func (m *Manager) applyCursors(c *cursors) {
	for i := range m.regs {
		if r := &m.regs[i]; r.cur.Seq < c.All {
			r.cur = Cursor{Seq: c.All}
		}
	}
	for _, s := range c.Set {
		if r := m.find(s.Name); r != nil {
			r.cur = s.cur
		}
	}
}

func removeReg(regs []registration, name string) []registration {
	out := regs[:0]
	for _, r := range regs {
		if r.Name != name {
			out = append(out, r)
		}
	}
	return out
}

// find returns the active registration named name, or nil.
func (m *Manager) find(name string) *registration {
	for i := range m.regs {
		if m.regs[i].Name == name {
			return &m.regs[i]
		}
	}
	return nil
}

// checkpointLocked is the log's only maintenance step: seal the active
// segment and start the next one with a synced manifest of the current
// state, then delete the oldest segments whose newest edge is below the
// clock's cutoff, which never moves back (it is persisted in every
// manifest). The window is never rewritten; with zero retention nothing is
// deleted either.
func (m *Manager) checkpointLocked() error {
	cut := int64(m.clock.Cutoff())
	newest, _ := m.clock.Newest() // math.MinInt64 before any time
	m.recBuf = appendManifest(m.recBuf[:0], &manifest{
		Newest:        int64(newest),
		Retention:     int64(m.clock.Window()),
		Cutoff:        cut,
		Seq:           m.seq,
		Registrations: m.regs,
	})
	sealing := m.log.f != nil // false only for the segment Open starts
	if sealing {
		m.sealed = append(m.sealed, sealedSeg{seq: m.log.seq, maxTS: m.log.maxTS})
	}
	if err := m.log.rotate(m.recBuf); err != nil {
		return err
	}
	if sealing {
		m.checkpoints.Inc()
	}
	for i := range m.regs {
		m.regs[i].dirty = false
	}
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

// Ack records that query's match with key (its signature), completed by
// the edge at log position seq, has reached a consumer. Consumers ack in
// delivery order, the order of the completing edges, so a later edge's ack
// moves the cursor past every earlier edge; until then the keys acked from
// the edge after the cursor are kept. The next Commit logs what moved.
func (m *Manager) Ack(query, key string, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.find(query)
	if r == nil || r.cur.Covers(seq, key) || m.closed || m.degraded {
		return
	}
	if seq > r.cur.Seq+1 {
		r.cur.Seq = seq - 1
		r.cur.Keys = r.cur.Keys[:0]
	}
	m.recBuf = append(m.recBuf[:0], key...)
	r.cur.Keys = append(r.cur.Keys, m.keys.Copy(m.recBuf))
	r.dirty = true
}

// Commit records that the matches completed by the edges up to log
// position all have reached a consumer, moving every cursor there but the
// held ones (0 moves none), and logs the cursors moved since the last frame
// or manifest in one RecCursor frame. Call it at most once per batch, after
// the batch's append has joined, so no logged cursor runs ahead of the log.
func (m *Manager) Commit(all uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joinLocked()
	if m.closed || m.degraded {
		return nil
	}
	return m.commitLocked(all)
}

// commitLocked is Commit; Close calls it last, once closed is set. A
// frame's all moves the cursors of the registrations that are not listed
// after it, so a held registration is listed in every frame that moves all.
func (m *Manager) commitLocked(all uint64) error {
	if all <= m.all {
		all = 0
	} else {
		m.all = all
	}
	listed := func(r *registration) bool { return r.dirty || all > 0 && r.held }
	n := 0
	for i := range m.regs {
		r := &m.regs[i]
		if all > 0 && !r.held && r.cur.Seq < all {
			r.cur, r.dirty = Cursor{Seq: all}, false
		}
		if listed(r) {
			n++
		}
	}
	if all == 0 && n == 0 {
		return nil
	}
	m.recBuf = binary.AppendUvarint(binary.AppendUvarint(m.recBuf[:0], all), uint64(n))
	for i := range m.regs {
		if r := &m.regs[i]; listed(r) {
			m.recBuf = appendCursor(wire.AppendString(m.recBuf, r.Name), r.cur)
			r.dirty = false
		}
	}
	if err := m.log.append(RecCursor, m.recBuf); err != nil {
		m.degradeLocked(err)
		return err
	}
	m.wakeLocked()
	return m.checkpointIfDueLocked()
}

// Hold keeps query's cursor where recovery left it while the matches
// recovery re-derived past it wait for a subscriber, so that a crash before
// they are delivered recovers them again: Commit's all passes a held cursor
// by. Released (held false), the cursor moves to the newest position Commit
// moved every cursor to, or the last position recovered.
func (m *Manager) Hold(query string, held bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.find(query); r != nil && r.held != held {
		if r.held = held; !held && r.cur.Seq < m.all {
			r.cur, r.dirty = Cursor{Seq: m.all}, true
		}
	}
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
