package wal

import (
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

// AppendEdges logs one ingested batch, write-ahead of processing, and
// takes the periodic checkpoint when the batch counter comes due. A write
// error flips the manager into degraded (in-memory) mode and is returned
// once; once degraded, appends are silent no-ops so ingest keeps flowing.
func (m *Manager) AppendEdges(edges []graph.StreamEdge) error {
	return m.AppendEdgesAsync(edges)()
}

// AppendEdgesAsync hands one ingested batch to the manager's appender
// goroutine and returns the join barrier. The caller may overlap its own
// work on the batch — the engines process edges while the frame is encoded
// and written — but must invoke the barrier before treating the batch as
// ingested (acking it upstream, flushing emission notes): the barrier
// returning means the frame reached the OS, which is what survives a
// process crash. The batch slice must not be mutated until the barrier
// returns. At most one append is in flight; every other Manager method
// orders itself after it. The hand-off allocates nothing: the appender is
// started by the first append and lives until Close, the batch and its
// outcome travel on channels made with it, and the barrier is one func
// value built by Open.
func (m *Manager) AppendEdgesAsync(edges []graph.StreamEdge) func() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joinLocked()
	if len(edges) == 0 || m.closed || m.degraded {
		return noBarrier
	}
	m.startAppenderLocked()
	m.pending = true
	m.batch <- edges // never blocks: the last batch was received before it was joined
	return m.barrier
}

// noBarrier is the barrier of an append that logs nothing.
func noBarrier() error { return nil }

// join is the barrier AppendEdgesAsync returns: it waits for the append in
// flight, if any, and reports its outcome.
func (m *Manager) join() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.joinLocked()
}

// startAppenderLocked starts the appender unless it is running or the
// manager is closed.
func (m *Manager) startAppenderLocked() {
	if m.batch != nil || m.closed {
		return
	}
	m.batch = make(chan []graph.StreamEdge, 1)
	m.done = make(chan error, 1)
	m.wake = make(chan struct{}, 1)
	m.stopped = make(chan struct{})
	go m.appender()
}

// stopAppenderLocked ends the appender, if it runs, and waits for it to
// exit. Call with no append in flight.
func (m *Manager) stopAppenderLocked() {
	if m.batch == nil {
		return
	}
	close(m.batch)
	<-m.stopped
	m.batch = nil
}

// wakeLocked arms the group-commit timer for frames a control append left
// unsynced, starting the appender if no batch has yet.
func (m *Manager) wakeLocked() {
	if !m.log.owed {
		return
	}
	m.startAppenderLocked()
	select {
	case m.wake <- struct{}{}:
	default: // a wake is already queued
	}
}

// appender is the manager's one log-writing goroutine. It writes each batch
// it is handed — with the manager lock NOT held: joinLocked gates every
// other toucher of log, encBuf and batches until the outcome is received —
// and it is the group-commit timer: under FsyncInterval, frames the log
// holds unsynced wait at most groupCommitInterval, then the appender takes
// the lock and syncs them, unless an append is in flight (which settles the
// sync itself) or the log has been synced, rotated, closed or degraded in
// the meantime. It exits when Close closes batch, which is never reassigned
// while it runs.
func (m *Manager) appender() {
	defer close(m.stopped)
	// A tick syncs only what is owed, so one that comes early is harmless.
	timer := time.NewTimer(groupCommitInterval)
	timer.Stop()
	defer timer.Stop()
	armed := false
	arm := func(d time.Duration) {
		timer.Reset(d)
		armed = true
	}
	for {
		var tick <-chan time.Time
		if armed {
			tick = timer.C
		}
		select {
		case edges, ok := <-m.batch:
			if !ok {
				return
			}
			err := m.appendBatch(edges)
			owed := m.log.owed // read while the log is still this goroutine's
			m.done <- err
			if owed && !armed {
				arm(groupCommitInterval)
			}
		case <-m.wake:
			if !armed {
				arm(groupCommitInterval)
			}
		case <-tick:
			armed = false
			if !m.mu.TryLock() {
				// The holder may be joining the batch queued behind this
				// tick, or closing: serve the batch first, then try again.
				arm(time.Millisecond)
				continue
			}
			m.syncOwedLocked()
			m.mu.Unlock()
		}
	}
}

// appendBatch writes one edge-batch frame. It runs on the appender, which
// owns log, encBuf and batches while the append is pending.
func (m *Manager) appendBatch(edges []graph.StreamEdge) error {
	m.encBuf = wire.AppendEdges(m.encBuf[:0], edges)
	if err := m.log.append(RecEdgeBatch, m.encBuf); err != nil {
		return err
	}
	for i := range edges {
		m.log.maxTS = max(m.log.maxTS, int64(edges[i].Edge.Timestamp))
	}
	m.batches++
	return nil
}

// syncOwedLocked is the group commit's tick: it syncs the frames the log
// holds unsynced.
func (m *Manager) syncOwedLocked() {
	if m.pending || m.closed || m.degraded || !m.log.owed {
		return
	}
	if err := m.log.sync(); err != nil {
		m.degradeLocked(err)
	}
}

// appendControl logs one control record and, once it is in the log, folds
// it into the manager's state through apply — in that order, so a manifest
// never records an operation the log does not hold.
func (m *Manager) appendControl(rec byte, payload []byte, apply func()) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joinLocked()
	if m.closed || m.degraded {
		return nil
	}
	if err := m.log.append(rec, payload); err != nil {
		m.degradeLocked(err)
		return err
	}
	m.wakeLocked()
	apply()
	return m.checkpointIfDueLocked()
}

// AppendRegister logs a query registration.
func (m *Manager) AppendRegister(r RegisterRecord) error {
	payload, err := encodeRegister(r)
	if err != nil {
		return err
	}
	return m.appendControl(RecRegister, payload, func() { m.applyRegister(r) })
}

// AppendUnregister logs a query unregistration.
func (m *Manager) AppendUnregister(name string) error {
	return m.appendControl(RecUnregister, []byte(name), func() { m.regs = removeReg(m.regs, name) })
}

// AppendAdvance logs an explicit advance of stream time.
func (m *Manager) AppendAdvance(ts int64) error {
	return m.appendControl(RecAdvance, encodeAdvance(ts), func() { m.clock.AdvanceTo(graph.Timestamp(ts)) })
}

// Snapshot forces a checkpoint now: start a new segment with a manifest of
// the current state and delete the segments whose edges have all expired.
// (The name is the API's; nothing is serialized but the manifest.)
func (m *Manager) Snapshot() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joinLocked()
	if m.closed || m.degraded {
		return nil
	}
	if err := m.checkpointLocked(); err != nil {
		m.degradeLocked(err)
		return err
	}
	return nil
}

// Close checkpoints the emitted-set one final time, making a graceful
// restart strictly exactly-once: every match delivered before Close is
// suppressed on recovery. Call only after the engine has stopped emitting.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joinLocked()
	if m.closed {
		return nil
	}
	m.closed = true // no append starts the appender again
	m.stopAppenderLocked()
	m.checkpointEmittedLocked()
	if m.degraded {
		return nil
	}
	return m.log.close()
}
