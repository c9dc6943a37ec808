package streamworks

import (
	"context"
	"log"
	"sort"
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
// when appends and emission notes are live.
type durable struct {
	man *wal.Manager
	// reg is the WAL's registry, which also holds the recovery backlog's
	// size. When durability was requested but could not be established (WAL
	// open failure) there is no manager: reg is a registry of its own whose
	// degraded gauge is set from birth, and the engine runs in-memory.
	reg     *obs.Registry
	backlog *obs.Gauge
	// manual defers emission acknowledgment to the embedder
	// (WithManualDeliveryAck): the serving tier acks a match only once it
	// has flushed it to the subscriber's socket.
	manual bool
	// replaying gates out WAL appends and emission notes while recovered
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

// appendEdgesAsync starts the write-ahead append and returns its join
// barrier (nil when durability is off). The caller overlaps engine work
// with the log write, then must run the barrier before acking the batch or
// flushing emission notes — that is the point at which the frame has
// reached the OS and survives a crash.
func (d *durable) appendEdgesAsync(edges []StreamEdge) func() error {
	if !d.live() {
		return nil
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

// note records a delivered emission (auto mode and backlog replay).
func (d *durable) note(query, signature string, spanStart int64) {
	if d.live() {
		d.man.NoteEmitted(query, signature, spanStart)
	}
}

func (d *durable) close() {
	if d != nil && d.man != nil {
		d.man.Close()
	}
}

// takeBacklog removes and returns the recovered matches the filter admits;
// each backlog entry is handed to exactly one subscriber.
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
// ordinary paths (replaying suppresses re-appending them to the log),
// collecting every match the replay re-derives via a temporary
// subscription, which each call has fed before it returns. Matches whose
// keys are not in the recovered emitted-set were derived but never
// delivered before the crash; they become the backlog, delivered once to
// the first matching subscriber that attaches.
func replayRecovery(e *Sharded, rec *wal.Recovery) {
	d := e.dur
	d.replaying.Store(true)
	defer d.replaying.Store(false)
	ctx := context.Background()
	collected := make(map[string]Match)
	sub, err := e.Subscribe("", SinkFunc(func(m Match) {
		collected[wal.MatchKey(m.Query, m.Signature)] = m
	}))
	if err != nil {
		log.Printf("streamworks: recovery subscription failed: %v", err)
		return
	}
	for _, op := range rec.Ops {
		switch op.Type {
		case wal.RecEdgeBatch:
			if err := e.ProcessBatch(ctx, op.Edges); err != nil {
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
		case wal.RecAdvance:
			if err := e.Advance(ctx, Timestamp(op.TS)); err != nil {
				log.Printf("streamworks: recovery: advancing watermark: %v", err)
			}
		}
	}
	sub.Close()
	backlog := make([]Match, 0)
	for key, m := range collected {
		if _, emitted := rec.Emitted[key]; !emitted {
			backlog = append(backlog, m)
		}
	}
	sort.Slice(backlog, func(i, j int) bool {
		if backlog[i].Query != backlog[j].Query {
			return backlog[i].Query < backlog[j].Query
		}
		return backlog[i].Signature < backlog[j].Signature
	})
	d.backMu.Lock()
	d.setRecovered(backlog)
	d.backMu.Unlock()
}
