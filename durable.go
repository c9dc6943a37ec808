package streamworks

import (
	"context"
	"log"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/wal"
)

// DurabilityStats is the public view of the engine's durability state,
// surfaced through /healthz (Mode) and /v1/metrics (the counters). It is the
// wire type itself, read from the WAL's registry (api.WALMetricsFrom).
type DurabilityStats = api.WALMetrics

// durable is the in-process backend's durability state: the WAL manager,
// the recovery backlog awaiting its first subscriber, and the flags gating
// when appends and cursor moves are live.
type durable struct {
	man *wal.Manager
	// reg is the WAL's registry, which also holds the recovery backlog's
	// size. When durability was requested but could not be established (WAL
	// open failure) there is no manager: reg is a registry of its own whose
	// degraded gauge is set from birth, and the engine runs in-memory.
	reg     *obs.Registry
	backlog *obs.Gauge
	// manual defers delivery acknowledgment to the embedder
	// (WithManualDeliveryAck): the serving tier acks a match only once it
	// has flushed it to the subscriber's socket.
	manual bool
	// replaying gates out WAL appends and cursor moves while recovered
	// operations are being pushed back through the engine.
	replaying atomic.Bool

	backMu    sync.Mutex
	recovered []Match
}

// openDurable opens (and recovers) the WAL when a data dir is configured.
// It never fails the constructor: an unopenable WAL yields a degraded
// durable so ingest still works, mirroring runtime write-failure handling.
func openDurable(cfg *config) (*durable, *wal.Recovery) {
	if cfg.dataDir == "" {
		return nil, nil
	}
	d := &durable{manual: cfg.manualAck}
	policy, err := wal.ParseFsyncPolicy(cfg.fsyncPolicy)
	if err != nil {
		log.Printf("streamworks: %v; durability degraded", err)
		return d.degraded(), nil
	}
	man, rec, err := wal.Open(wal.Options{
		Dir:           cfg.dataDir,
		FS:            cfg.walFS,
		Fsync:         policy,
		SnapshotEvery: cfg.snapshotEvery,
		Retention:     cfg.engine.Retention,
		Slack:         cfg.engine.Slack,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Printf("streamworks: opening WAL in %s: %v; running without durability (degraded)", cfg.dataDir, err)
		return d.degraded(), nil
	}
	d.man, d.reg = man, man.Registry()
	d.backlog = d.reg.Gauge("wal_recovery_backlog", "", "")
	return d, rec
}

// degraded is d with durability requested but not established.
func (d *durable) degraded() *durable {
	d.reg = obs.NewRegistry()
	d.reg.Gauge("wal_degraded", "", "").Set(1)
	return d
}

func (d *durable) live() bool {
	return d != nil && d.man != nil && !d.replaying.Load()
}

// appendEdgesAsync starts the write-ahead append and returns the log
// position of the batch's first edge (0 when nothing is logged) and the
// append's join barrier (nil when durability is off). The caller overlaps engine work with the
// log write, then must run the barrier before acking the batch or
// committing a cursor — that is the point at which the frame has reached
// the OS and survives a crash.
func (d *durable) appendEdgesAsync(edges []StreamEdge) (uint64, func() error) {
	if !d.live() {
		return 0, nil
	}
	return d.man.AppendEdgesAsync(edges)
}

func (d *durable) appendRegister(r wal.RegisterRecord) {
	if d.live() {
		d.man.AppendRegister(r)
	}
}

func (d *durable) appendUnregister(name string) {
	if d.live() {
		d.man.AppendUnregister(name)
	}
}

func (d *durable) appendAdvance(ts Timestamp) {
	if d.live() {
		d.man.AppendAdvance(int64(ts))
	}
}

// commit logs, once a batch's append has joined, how far delivery has
// gone: every match up to the one completed by the edge at log position
// matched reached its sinks, unless delivery is acknowledged by hand, where
// only what AckDelivered acked is logged.
func (d *durable) commit(matched uint64) {
	if d.manual {
		matched = 0
	}
	d.man.Commit(matched)
}

// ack moves m's query's cursor past m, under manual acknowledgment.
func (d *durable) ack(m Match) {
	if d.live() && d.manual {
		d.man.Ack(m.Query, m.Signature, m.Seq)
	}
}

func (d *durable) close() {
	if d != nil && d.man != nil {
		d.man.Close()
	}
}

// takeBacklog removes and returns the recovered matches the filter admits,
// in their queries' log order; each backlog entry is handed to exactly one
// subscriber.
func (d *durable) takeBacklog(filter string) []Match {
	if d == nil || d.man == nil {
		return nil
	}
	d.backMu.Lock()
	defer d.backMu.Unlock()
	if len(d.recovered) == 0 {
		return nil
	}
	var out []Match
	kept := d.recovered[:0]
	for _, m := range d.recovered {
		if filter == "" || m.Query == filter {
			out = append(out, m)
		} else {
			kept = append(kept, m)
		}
	}
	d.setRecovered(kept)
	return out
}

// hold holds, or frees, the cursors of the backlog's queries (Hold),
// unless delivery is acknowledged by hand, which moves them itself.
func (d *durable) hold(backlog []Match, held bool) {
	for _, m := range backlog {
		if !d.manual {
			d.man.Hold(m.Query, held)
		}
	}
}

// setRecovered replaces the backlog and publishes its size; backMu held.
func (d *durable) setRecovered(ms []Match) {
	d.recovered = ms
	d.backlog.Set(int64(len(ms)))
}

// snapshot reads the WAL tier's registry; empty without durability.
func (d *durable) snapshot() obs.Snapshot {
	if d == nil {
		return obs.Snapshot{}
	}
	return d.reg.Snapshot()
}

// stats is the durability view: "off" without durability, otherwise read
// from the registry without touching the manager's lock.
func (d *durable) stats() DurabilityStats {
	if d == nil {
		return DurabilityStats{Mode: "off"}
	}
	return api.WALMetricsFrom(d.reg.Snapshot())
}

// registerRecord is one registration's durable form: recovery re-registers
// it with the same plan settings.
func registerRecord(q *Query, o RegisterOptions) wal.RegisterRecord {
	return wal.RegisterRecord{Name: q.Name(), DSL: FormatQuery(q), Strategy: o.Strategy}
}

// replayRecovery pushes the recovered operations back through the engine's
// ordinary paths (replaying suppresses re-appending them to the log), each
// edge at its log position, collecting every match the replay re-derives
// via a temporary subscription, which each call has fed before it returns.
// A match its query's cursor does not cover was derived but never
// delivered before the crash; it joins the backlog, delivered once to the
// first matching subscriber that attaches. A query unregistered in the log
// takes its matches with it. Until its backlog is delivered, a query's
// cursor is held where recovery found it (unless delivery is acknowledged
// by hand, which moves it).
func replayRecovery(e *Sharded, rec *wal.Recovery) {
	d := e.dur
	d.replaying.Store(true)
	defer d.replaying.Store(false)
	ctx := context.Background()
	var backlog []Match
	sub, err := e.Subscribe("", SinkFunc(func(m Match) {
		if !rec.Cursors[m.Query].Covers(m.Seq, m.Signature) {
			backlog = append(backlog, m)
		}
	}))
	if err != nil {
		log.Printf("streamworks: recovery subscription failed: %v", err)
		return
	}
	for _, op := range rec.Ops {
		switch op.Type {
		case wal.RecEdgeBatch:
			if err := e.process(ctx, op.Edges, op.Seq); err != nil {
				log.Printf("streamworks: recovery: replaying %d edges: %v", len(op.Edges), err)
			}
		case wal.RecRegister:
			q, err := ParseQuery(op.Register.DSL)
			if err != nil {
				log.Printf("streamworks: recovery: parsing query %q: %v", op.Register.Name, err)
				continue
			}
			if err := e.RegisterQueryWith(ctx, q, RegisterOptions{Strategy: op.Register.Strategy}); err != nil {
				log.Printf("streamworks: recovery: re-registering %q: %v", op.Register.Name, err)
			}
		case wal.RecUnregister:
			if err := e.UnregisterQuery(ctx, op.Name); err != nil {
				log.Printf("streamworks: recovery: unregistering %q: %v", op.Name, err)
			}
			backlog = slices.DeleteFunc(backlog, func(m Match) bool { return m.Query == op.Name })
		case wal.RecAdvance:
			if err := e.Advance(ctx, Timestamp(op.TS)); err != nil {
				log.Printf("streamworks: recovery: advancing watermark: %v", err)
			}
		}
	}
	sub.Close()
	slices.SortStableFunc(backlog, func(a, b Match) int { return strings.Compare(a.Query, b.Query) })
	d.hold(backlog, true)
	d.backMu.Lock()
	d.setRecovered(backlog)
	d.backMu.Unlock()
}
