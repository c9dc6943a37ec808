// Package shard is the front-end of the one continuous-query engine a
// process runs: a single core.Engine behind the register/process/metrics
// surface the public backend and the serving tier drive, on the caller's
// goroutine.
//
// The front-end adds three things to the engine. It judges lateness on a
// graph.Clock of its own, so a caller that logs what it processes can drop
// a late edge before the log append (Admit). It hands every match the
// engine finds to the one sink it was built with (Config.Sink) under a lock
// that Exclusive also takes, so a delivery made from another goroutine, a
// recovered backlog, never overlaps a live one. And it publishes the
// engine's detected counts as its delivered counts, since every match the
// engine finds is delivered.
//
// The package keeps the name it had while it divided the registered queries
// between several engines, each on a goroutine of its own and each applying
// every edge to a window of its own. One engine reached every number two or
// four did, on less CPU (README "Shard rows"), so that split was deleted.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

// Config controls the front-end.
type Config struct {
	// Shards is read by nothing: a process runs one engine, whatever the
	// count. The field stays because benchmark/ sets it.
	Shards int
	// Engine is the engine's configuration.
	Engine core.Config
	// Sink receives every complete match, invoked on the goroutine driving
	// the engine and never twice at once: it must not block, or it stalls
	// ingestion. Nil drops matches (counters still advance).
	Sink core.MatchSink
}

// ShardedEngine drives one core.Engine. Control methods (RegisterQuery,
// UnregisterQuery, Process, Advance, Metrics, Close) must be called from one
// goroutine — the stream driver.
type ShardedEngine struct {
	eng  *core.Engine
	sink core.MatchSink

	closed bool // Close was called; the engine is permanently stopped
	// delivering serializes calls into sink with Exclusive's.
	delivering sync.Mutex

	// clock follows the stream time processed (edges and Advance); it judges
	// lateness before the engine sees an edge. The retention is the
	// engine's to keep.
	clock graph.Clock

	// reg is the front-end's registry, holding the registrations gauge; it
	// stays out of the engine's, whose snapshot every Metrics call reads
	// and whose view counts registrations from its DAG. The late edges
	// dropped here are counted in the engine's registry, beside its
	// duplicate IDs.
	reg           *obs.Registry
	registrations *obs.Gauge
	dropped       *obs.Counter

	// The dispatch histogram and its clock, when observability is enabled.
	obsClock    obs.Clock
	obsDispatch *obs.Histogram
}

// New constructs a ShardedEngine. cfg may be nil, the same as &Config{}.
func New(cfg *Config) *ShardedEngine {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	// The observability clock is shared; the registry is the engine's own,
	// which core.New allocates.
	engCfg := c.Engine
	engCfg.Obs = c.Engine.Obs.Normalized()
	engCfg.Obs.Registry = nil
	s := &ShardedEngine{
		eng:   core.New(&engCfg),
		sink:  c.Sink,
		clock: graph.NewClock(0, c.Engine.Slack),
		reg:   obs.NewRegistry(),
	}
	s.registrations = s.reg.Gauge("registrations", "", "")
	reg := s.eng.ObsRegistry()
	s.dropped = reg.Counter("edges_dropped", "", "")
	if engCfg.Obs.Enabled {
		s.obsClock = engCfg.Obs.Clock
		s.obsDispatch = reg.Segment(obs.SegDispatch)
	}
	s.eng.Subscribe("", core.MatchSinkFunc(s.deliver))
	return s
}

// deliver hands ev to the sink under the delivery lock.
func (s *ShardedEngine) deliver(ev core.MatchEvent) {
	s.delivering.Lock()
	defer s.delivering.Unlock()
	if s.obsDispatch != nil && ev.EmittedWallNS != 0 {
		// Dispatch latency: core emission → delivery, including the wait for
		// the lock.
		s.obsDispatch.Observe(s.obsClock.Now() - ev.EmittedWallNS)
	}
	if s.sink != nil {
		s.sink.OnMatch(ev)
	}
}

// ObsSnapshot reads the front-end's and the engine's registries as they
// stand, with the delivered counts beside the detected ones. It refreshes
// no gauge, so sizes are as of the engine's last refresh, and, unlike the
// control methods, it is safe from any goroutine.
func (s *ShardedEngine) ObsSnapshot() obs.Snapshot {
	snap := s.eng.ObsRegistry().Snapshot()
	return obs.Merge(s.reg.Snapshot(), snap, delivered(snap))
}

// delivered is the delivered-match series: every match the engine finds is
// delivered, so they are its matches_detected and query_matches_detected
// under the names the delivered counts go by.
func delivered(engine obs.Snapshot) obs.Snapshot {
	var out obs.Snapshot
	for _, c := range engine.Counters {
		switch c.Name {
		case "matches_detected":
			c.Name = "matches_emitted"
		case "query_matches_detected":
			c.Name = "query_matches_emitted"
		default:
			continue
		}
		out.Counters = append(out.Counters, c)
	}
	return out
}

// Exclusive runs fn under the lock every delivery takes, so fn never
// overlaps a call into Config.Sink. It is safe from any goroutine but a
// sink's own.
func (s *ShardedEngine) Exclusive(fn func()) {
	s.delivering.Lock()
	defer s.delivering.Unlock()
	fn()
}

// ErrClosed is returned by Process, RegisterQuery and UnregisterQuery after
// Close. Close is permanent (and idempotent); build a new engine to stream
// again.
var ErrClosed = errors.New("shard: engine closed")

// RegisterQuery registers a continuous query, before streaming or
// mid-stream. A mid-stream query needing more retention than is in force
// fails with ErrRetentionTooSmall (matching core.Engine semantics).
func (s *ShardedEngine) RegisterQuery(q *query.Graph, opts ...core.RegistrationOption) error {
	if q == nil {
		return core.ErrNilQuery
	}
	if s.closed {
		return ErrClosed
	}
	if _, err := s.eng.RegisterQuery(q, opts...); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	s.registrations.Set(int64(len(s.eng.Registrations())))
	return nil
}

// UnregisterQuery removes a registration. Partial matches held for the query
// are dropped with it, and so are its series: a later registration under
// the same name counts from zero.
func (s *ShardedEngine) UnregisterQuery(name string) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.eng.UnregisterQuery(name); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	s.registrations.Set(int64(len(s.eng.Registrations())))
	return nil
}

// Start does nothing. It is kept only because benchmark/ calls it.
func (s *ShardedEngine) Start() {}

// Process hands one stream edge to the engine. A late edge (graph.Clock) is
// counted and dropped first. It returns ErrClosed after Close.
func (s *ShardedEngine) Process(se graph.StreamEdge) error {
	return s.ProcessContext(context.Background(), se)
}

// ProcessContext is Process that refuses the edge, with the context's
// error, once ctx is done.
func (s *ShardedEngine) ProcessContext(ctx context.Context, se graph.StreamEdge) error {
	if s.closed {
		return ErrClosed
	}
	if s.clock.Late(se.Edge.Timestamp) {
		s.dropped.Inc()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Complete matches reach the sink through the engine's; the
	// scratch-backed return slice is deliberately unused.
	s.eng.ProcessEdge(se)
	s.clock.AdvanceTo(se.Edge.Timestamp)
	return nil
}

// Admit judges a batch on the front-end's clock, in order, as Process would
// judge each edge in turn: it counts the late edges as dropped and returns
// the others — batch itself, neither copied nor changed, when none is late,
// and a new slice otherwise. Process finds none of the returned edges late,
// so a caller that logs what it processes logs no edge Process would drop.
func (s *ShardedEngine) Admit(batch []graph.StreamEdge) []graph.StreamEdge {
	c := s.clock
	for i := range batch {
		ts := batch[i].Edge.Timestamp
		if !c.Late(ts) {
			c.AdvanceTo(ts)
			continue
		}
		admitted := slices.Clone(batch[:i])
		for j := i; j < len(batch); j++ {
			if ts := batch[j].Edge.Timestamp; c.Late(ts) {
				s.dropped.Inc()
			} else {
				c.AdvanceTo(ts)
				admitted = append(admitted, batch[j])
			}
		}
		return admitted
	}
	return batch
}

// Advance signals the passage of stream time to the engine, exactly like
// Dynamic.AdvanceTo (the watermark trails ts by the configured slack).
func (s *ShardedEngine) Advance(ts graph.Timestamp) {
	if s.closed {
		return
	}
	s.clock.AdvanceTo(ts)
	s.eng.Advance(ts)
}

// Flush is the delivery barrier: it returns once every match of the calls
// made before it has reached the sink. Each call has delivered its matches
// by the time it returns, so Flush waits for nothing. It returns ErrClosed
// after Close.
func (s *ShardedEngine) Flush() error {
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Close stops the engine: Process returns ErrClosed from then on. Metrics
// stay readable. Close is idempotent.
func (s *ShardedEngine) Close() { s.closed = true }

// PerShardMetrics returns the engine's view, alone: see Metrics. It is kept
// only because benchmark/ calls it.
func (s *ShardedEngine) PerShardMetrics() []core.Metrics {
	return []core.Metrics{s.Metrics()}
}

// Metrics is the engine's own view.
func (s *ShardedEngine) Metrics() core.Metrics { return s.eng.Metrics() }

// Snapshot reads the engine once, refreshing its gauges first, and returns
// its view with the reading it was built from, delivered counts included.
// Like all control methods it must be called from the driver goroutine.
func (s *ShardedEngine) Snapshot() (core.Metrics, obs.Snapshot) {
	m, snap := s.eng.Snapshot()
	return m, obs.Merge(s.reg.Snapshot(), snap, delivered(snap))
}
