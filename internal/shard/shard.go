// Package shard runs the StreamWorks continuous query engine on N
// core.Engine shards and divides the registered queries between them, the
// scale-out layer the single-threaded core.Engine explicitly defers to
// ("shard streams across engines for parallelism").
//
// A ShardedEngine owns N independent core.Engine workers. The count fixes
// how they run, at construction: above one shard each worker gets its own
// goroutine and input mailbox then, and a lone shard runs on the caller's
// goroutine for its whole life, edges included.
//
// A query, not a vertex, is the unit of sharding. Each query is registered
// on exactly one shard: the one holding the fewest queries among the
// candidates, the lowest index on a tie. Before the first edge is admitted
// every shard is a candidate. The first admitted edge fixes the fed shards:
// shard 0 and every shard holding a query at that moment. Every admitted
// edge, and every Advance, goes to every fed shard in order, so each fed
// shard's window is the whole stream's, as on one engine; a shard that is
// not fed receives nothing and keeps no window, and its worker's goroutine
// and mailbox are gone: its engine runs on the caller's goroutine, as a
// lone shard's does. From then on only the fed
// shards are candidates, so a query registered mid-stream lands on a shard
// that has seen every edge, and sees exactly what a single engine would.
//
// Each query's matches come from its one shard, so each match reaches the
// sink once with no rule across shards: every shard hands what its engine
// finds to the one sink the engine was built with (Config.Sink), on
// the goroutine driving it, under a lock every shard delivers under;
// filtering and fan-out to subscribers belong to the tier above. A shard's
// delivered counts are therefore its engine's detected counts. Every shard
// keeps the same retention: a pre-stream registration that widens it widens
// it on every shard, wherever the query lives.
//
// Two queries that share a plan node share it only when they live on the
// same shard; on two shards each searches it. The DAG views of the shards
// are folded by node signature (mqo.MergeStats).
//
// Every count lives in one registry: each worker engine's own (written by
// the goroutine driving it), and the front-end's for the registrations and
// the late edges it drops before routing (a lone shard's engine counts
// those). Metrics and ObsSnapshot fold them with obs.Merge, each dropped
// duplicate once (shardSeries).
package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

// Config controls the sharded front-end.
type Config struct {
	// Shards is the number of engine workers. New, the one place that
	// defaults it, treats a count below 1 as 1: the zero Config runs one
	// shard, on the caller's goroutine.
	Shards int
	// Engine is the configuration applied to every per-shard core.Engine.
	Engine core.Config
	// Sink receives every complete match, invoked on the goroutine driving
	// the shard that holds the match's query and never twice at once: it
	// must not block, or it stalls every shard and eventually ingestion.
	// Nil drops matches (counters still advance).
	Sink core.MatchSink
}

// mailboxDepth is each shard worker's mailbox capacity in messages; a full
// mailbox blocks the front-end, which is the backpressure the stream
// driver sees.
const mailboxDepth = 1024

// ShardedEngine drives N core.Engine shards behind the same
// register/process/metrics surface as a single engine. Control methods
// (RegisterQuery, UnregisterQuery, Process, Advance, Metrics, Close) must be
// called from one goroutine — the stream driver.
type ShardedEngine struct {
	workers []*worker
	// fed are the shards sent the stream, in shard order: every shard until
	// the first edge is admitted, then shard 0 and the shards holding a
	// query at that moment. A query is registered on one of them.
	fed []*worker
	// home is the shard each registered query lives on, and order the
	// registered queries in registration order.
	home  map[string]*worker
	order []string

	closed bool // Close was called; the engine is permanently stopped
	// deliver serializes the shards' calls into cfg.Sink.
	deliver sync.Mutex

	// clock follows the stream time routed (edges and Advance) and the
	// retention every shard keeps; it judges lateness, before routing.
	clock graph.Clock

	// reg is the front-end's registry: the registrations gauge.
	reg           *obs.Registry
	registrations *obs.Gauge
	dropped       *obs.Counter // late edges, in a lone shard's registry or reg
}

// New constructs a ShardedEngine and, above one shard, starts its workers'
// goroutines. cfg may be nil, the same as &Config{}: one shard.
func New(cfg *Config) *ShardedEngine {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	reg := obs.NewRegistry()
	s := &ShardedEngine{
		home:          make(map[string]*worker),
		clock:         graph.NewClock(c.Engine.Retention, c.Engine.Slack),
		reg:           reg,
		registrations: reg.Gauge("registrations", "", ""),
	}
	// Normalize the obs config once so the clock is shared.
	obsCfg := c.Engine.Obs.Normalized()
	for i := 0; i < c.Shards; i++ {
		// Same clock (safe for concurrent use), but a private registry,
		// which core.New allocates, so each worker's goroutine writes
		// without sharing cache lines with its siblings.
		engCfg := c.Engine
		engCfg.Obs = obsCfg
		engCfg.Obs.Registry = nil
		eng := core.New(&engCfg)
		w := newWorker(i, eng, &s.deliver, c.Sink)
		if obsCfg.Enabled {
			w.obsClock = obsCfg.Clock
			w.obsMailbox = eng.ObsRegistry().Segment(obs.SegShardMailbox)
			w.obsDispatch = eng.ObsRegistry().Segment(obs.SegDispatch)
		}
		if c.Shards > 1 {
			w.start()
		}
		s.workers = append(s.workers, w)
	}
	s.fed = s.workers
	if c.Shards == 1 {
		reg = s.workers[0].eng.ObsRegistry()
	}
	s.dropped = reg.Counter("edges_dropped", "", "")
	return s
}

// ObsSnapshot folds the front-end registry and every worker's private
// registry into one logical snapshot. It reads the registries as they stand —
// no worker round trip, so sizes are as of each owner's last refresh — and,
// unlike the control methods, is safe from any goroutine.
func (s *ShardedEngine) ObsSnapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, 2*len(s.workers)+1)
	snaps = append(snaps, s.reg.Snapshot())
	for i, w := range s.workers {
		snaps = append(snaps, shardSeries(i, w.eng.ObsRegistry().Snapshot())...)
	}
	return obs.Merge(snaps...)
}

// shardSeries is what shard i's engine snapshot adds to the fold: its series
// and its delivered matches, and a duplicate edge ID it dropped only when i
// is 0. Every fed shard is sent the same edges and keeps the same window, so
// each drops the same duplicates, and shard 0 is always fed.
func shardSeries(i int, engine obs.Snapshot) []obs.Snapshot {
	out := delivered(engine)
	if i > 0 {
		engine.Counters = slices.DeleteFunc(slices.Clone(engine.Counters), func(c obs.CounterSnapshot) bool {
			return c.Name == "edges_dropped"
		})
	}
	return []obs.Snapshot{engine, out}
}

// delivered is a shard's delivered-match series: it delivers every match
// its engine finds, so they are the engine's matches_detected and
// query_matches_detected under the names the delivered counts go by.
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

// Exclusive runs fn under the lock every shard delivers under, so fn never
// overlaps a call into Config.Sink. It is safe from any goroutine but a
// sink's own.
func (s *ShardedEngine) Exclusive(fn func()) {
	s.deliver.Lock()
	defer s.deliver.Unlock()
	fn()
}

// Shards returns the number of shard workers.
func (s *ShardedEngine) Shards() int { return len(s.workers) }

// ErrClosed is returned by Process, RegisterQuery and UnregisterQuery after
// Close: the mailboxes are gone, so accepting the call would mean either
// silently dropping work or sending on a stopped mailbox. Close is
// permanent (and idempotent); build a new engine to stream again.
var ErrClosed = errors.New("shard: engine closed")

// RegisterQuery registers a continuous query on one shard: the candidate
// holding the fewest queries, the lowest index on a tie (every shard before
// the first edge is admitted, the fed shards after it). It can be called
// before streaming or mid-stream; mid-stream the registration takes effect
// after the edges already queued in its shard's mailbox, which has been
// sent every edge, so the query sees what it would on a single engine. A
// mid-stream query needing more retention than is in force fails with
// ErrRetentionTooSmall (matching core.Engine semantics); a pre-stream query
// that widens the retention widens it on every shard, so each keeps the
// same window.
func (s *ShardedEngine) RegisterQuery(q *query.Graph, opts ...core.RegistrationOption) error {
	if q == nil {
		return core.ErrNilQuery
	}
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.home[q.Name()]; ok {
		return fmt.Errorf("shard: %w: %q", core.ErrDuplicateQuery, q.Name())
	}
	// The clock widens on a copy, kept once the shard has accepted.
	clock := s.clock
	if !clock.Extend(q.Window()) {
		return fmt.Errorf("shard: registering %q: %w: query window %s exceeds retention %s mid-stream",
			q.Name(), core.ErrRetentionTooSmall, q.Window(), s.clock.Window())
	}
	// The first of the least loaded: the lowest index on a tie.
	w := slices.MinFunc(s.fed, func(a, b *worker) int { return cmp.Compare(a.queries, b.queries) })
	var err error
	w.do(func() { _, err = w.eng.RegisterQuery(q, opts...) })
	if err != nil {
		return fmt.Errorf("shard %d: %w", w.id, err)
	}
	if clock.Window() != s.clock.Window() {
		for _, o := range s.workers {
			if o != w {
				// Cannot fail: no edge has been admitted (Extend).
				o.do(func() { _ = o.eng.ExtendRetention(q.Window()) })
			}
		}
	}
	s.clock = clock
	w.queries++
	s.home[q.Name()] = w
	s.order = append(s.order, q.Name())
	s.registrations.Set(int64(len(s.order)))
	return nil
}

// UnregisterQuery removes a registration from the shard it lives on.
// Partial matches held for the query are dropped with it, and so are its
// series: a later registration under the same name counts from zero.
func (s *ShardedEngine) UnregisterQuery(name string) error {
	if s.closed {
		return ErrClosed
	}
	w, ok := s.home[name]
	if !ok {
		return fmt.Errorf("shard: %w: %q", core.ErrUnknownQuery, name)
	}
	var err error
	w.do(func() { err = w.eng.UnregisterQuery(name) })
	if err != nil {
		return fmt.Errorf("shard %d: %w", w.id, err)
	}
	w.queries--
	delete(s.home, name)
	i := slices.Index(s.order, name)
	s.order = slices.Delete(s.order, i, i+1)
	s.registrations.Set(int64(len(s.order)))
	return nil
}

// Start does nothing: New starts the workers' goroutines above one shard,
// and a lone shard never has one. It is kept only because benchmark/ calls
// it.
func (s *ShardedEngine) Start() {}

// Process sends one stream edge to every fed shard. A late edge
// (graph.Clock) is counted and dropped before it is sent. It returns
// ErrClosed after Close.
func (s *ShardedEngine) Process(se graph.StreamEdge) error {
	return s.ProcessContext(context.Background(), se)
}

// ProcessContext is Process with a cancellation bound: on a lone shard, a
// done ctx refuses the edge; above one, ctx bounds the blocking mailbox
// hand-off, and when the shards cannot accept the edge before ctx is done,
// it returns the context error. Cancellation can interrupt the hand-off
// part-way; the edge may then have reached some of the fed shards, exactly
// as if their streams had been cut at that point.
func (s *ShardedEngine) ProcessContext(ctx context.Context, se graph.StreamEdge) error {
	if s.closed {
		return ErrClosed
	}
	if s.clock.Late(se.Edge.Timestamp) {
		s.dropped.Inc()
		return nil
	}
	if !s.clock.Admitted() {
		// The first edge to get in fixes the fed shards.
		s.fed = s.workers[:1:1]
		for _, w := range s.workers[1:] {
			if w.queries > 0 {
				s.fed = append(s.fed, w)
			}
		}
	}
	for i, w := range s.fed {
		if err := w.edge(ctx, se); err != nil {
			if i > 0 {
				// A shard consumed the edge: the fed shards stay as they
				// are and the registration guards engage.
				s.admit()
			}
			return err
		}
	}
	s.admit()
	s.clock.AdvanceTo(se.Edge.Timestamp)
	return nil
}

// admit records that an edge got in. The first time, that fixes the fed
// shards, and the worker of every other shard drains its mailbox and exits.
func (s *ShardedEngine) admit() {
	if s.clock.Admitted() {
		return
	}
	s.clock.Admit()
	for _, w := range s.workers {
		if !slices.Contains(s.fed, w) {
			w.stop()
		}
	}
}

// Admit judges a batch on the front-end's clock, in order, as Process would
// judge each edge in turn: it counts the late edges as dropped and returns
// the others — batch itself, neither copied nor changed, when none is late,
// and a new slice otherwise. Process finds none of the returned edges late,
// so a caller that logs what it processes logs no edge Process would drop.
func (s *ShardedEngine) Admit(batch []graph.StreamEdge) []graph.StreamEdge {
	c := s.clock
	for i, se := range batch {
		if !c.Late(se.Edge.Timestamp) {
			c.AdvanceTo(se.Edge.Timestamp)
			continue
		}
		admitted := slices.Clone(batch[:i])
		for _, se := range batch[i:] {
			if c.Late(se.Edge.Timestamp) {
				s.dropped.Inc()
				continue
			}
			c.AdvanceTo(se.Edge.Timestamp)
			admitted = append(admitted, se)
		}
		return admitted
	}
	return batch
}

// Advance sends an explicit stream-time signal to every fed shard, exactly
// like Dynamic.AdvanceTo on a single engine (the watermark trails ts by the
// configured slack).
func (s *ShardedEngine) Advance(ts graph.Timestamp) {
	if s.closed {
		return
	}
	s.clock.AdvanceTo(ts)
	for _, w := range s.fed {
		w.advance(ts)
	}
}

// Flush is a full-pipeline barrier: it returns only after every edge,
// advance and control message enqueued before the call has been processed
// by its shard AND every match those messages produced has been delivered
// to the sink — a worker delivers a match before it takes its next message.
// A lone shard has nothing to wait for: every call has delivered its
// matches by the time it returns. Recovery uses it to know that replaying
// the log tail has surfaced every re-derivable match before it compares them
// against the checkpointed emitted-set. Like Process, Flush must not race
// with Close.
func (s *ShardedEngine) Flush() error {
	if s.closed {
		return ErrClosed
	}
	for _, w := range s.workers {
		w.do(func() {})
	}
	return nil
}

// Close drains the mailboxes and stops the workers, returning after the
// final sink call; their engines are then the caller's, as a lone shard's
// is, so metrics stay readable. Close is idempotent and permanent: Process
// returns ErrClosed, and a second Close returns immediately.
func (s *ShardedEngine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.workers {
		if w.in != nil {
			close(w.in) // the worker drains its mailbox and exits
		}
	}
	for _, w := range s.workers {
		w.done.Wait()
		w.in = nil
	}
}

// PerShardMetrics snapshots every shard engine's counters in shard order:
// see Snapshot. Each fed shard counts every admitted edge; serving layers
// expose the views so operators can see which shard carries which queries.
func (s *ShardedEngine) PerShardMetrics() []core.Metrics {
	_, perShard, _ := s.Snapshot()
	return perShard
}

// Metrics is the sharded engine's aggregate view: see Snapshot. A lone
// shard's view is its engine's own, read with no merge.
func (s *ShardedEngine) Metrics() core.Metrics {
	if len(s.workers) == 1 {
		return s.workers[0].eng.Metrics()
	}
	m, _, _ := s.Snapshot()
	return m
}

// Snapshot reads the sharded engine once — the front-end's registry, then
// every worker's, each refreshing its gauges first — and returns the merged
// reading with the aggregate and per-shard views built from it, which always
// agree. Aggregate work counters are sums over shards, so an edge counts
// once per fed shard; each match is counted once, by the shard holding its
// query; EdgesDropped counts each input edge once: the late ones are the
// front-end's, the duplicates shard 0's. Registrations are the front-end's. Each query's view is its shard's, in registration order. A
// lone shard's view is its engine's own. Like all control methods it must
// be called from the driver goroutine.
func (s *ShardedEngine) Snapshot() (core.Metrics, []core.Metrics, obs.Snapshot) {
	snaps := []obs.Snapshot{s.reg.Snapshot()}
	perShard := make([]core.Metrics, len(s.workers))
	for i, w := range s.workers {
		var snap obs.Snapshot
		perShard[i], snap = w.snapshot()
		snaps = append(snaps, shardSeries(i, snap)...)
	}
	merged := obs.Merge(snaps...)
	if len(s.workers) == 1 {
		return perShard[0], perShard, merged
	}
	var m core.Metrics
	byName := make(map[string]core.QueryMetrics, len(s.order))
	dags := make([]mqo.Stats, len(perShard))
	for i, sm := range perShard {
		dags[i] = sm.MQO
		for _, qm := range sm.Queries {
			byName[qm.Name] = qm
		}
	}
	for _, name := range s.order {
		m.Queries = append(m.Queries, byName[name])
	}
	m.MQO = mqo.MergeStats(dags...)
	core.FillMetrics(&m, merged)
	m.Registrations = uint64(merged.Gauge("registrations", ""))
	return m, perShard, merged
}
