package wal

import (
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

// AppendEdgesAsync starts logging one ingested batch on a worker goroutine
// and returns the join barrier. The caller may overlap its own work on the
// batch — the engines process edges while the frame is encoded and written —
// but must invoke the barrier before treating the batch as ingested (acking
// it upstream, flushing emission notes): the barrier returning means the
// frame reached the OS, which is what survives a process crash. The batch
// slice must not be mutated until the barrier returns. At most one append is
// in flight; every other Manager method orders itself after it.
func (m *Manager) AppendEdgesAsync(edges []graph.StreamEdge) func() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joinLocked()
	if len(edges) == 0 || m.closed || m.degraded {
		return func() error { return nil }
	}
	done := make(chan error, 1)
	m.pending = done
	go func() {
		// The manager lock is NOT held here: joinLocked gates every other
		// toucher of log, encBuf and batches until done is drained.
		m.encBuf = wire.AppendEdges(m.encBuf[:0], edges)
		err := m.log.append(RecEdgeBatch, m.encBuf)
		if err == nil {
			for i := range edges {
				m.log.maxTS = max(m.log.maxTS, int64(edges[i].Edge.Timestamp))
			}
			m.batches++
		}
		done <- err
	}()
	return func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.joinLocked()
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
	m.checkpointEmittedLocked()
	m.closed = true
	if m.degraded {
		return nil
	}
	return m.log.close()
}
