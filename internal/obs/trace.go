package obs

import "sync"

// Trace stage names, in journey order. One sampled edge produces up to one
// event per stage per tier it crosses; matches and deliveries reference the
// edge that triggered them.
const (
	// StageIngest: the server runner dequeued the edge's batch from the
	// ingest queue (DurNS = queue wait).
	StageIngest = "ingest"
	// StageMailbox: a shard worker dequeued the edge from its mailbox
	// (DurNS = mailbox wait, Shard = worker index).
	StageMailbox = "mailbox"
	// StageProcess: the core engine finished processing the edge
	// (DurNS = local search + SJ-tree join time for that edge).
	StageProcess = "process"
	// StageMatch: processing the edge completed a match (Query set,
	// StreamTS = DetectedAt watermark).
	StageMatch = "match"
	// StageDeliver: a subscriber write for a match bound to the edge
	// finished flushing (DurNS = encode+flush time).
	StageDeliver = "deliver"
)

// TraceEvent is one sampled edge-journey event. By design it carries only
// scalar and string fields — never slices, maps or pointers — so recording
// an event can never retain scratch-backed ProcessEdge state
// (TestTraceEventHoldsOnlyScalars holds it to this shape).
type TraceEvent struct {
	// Seq is the tracer-assigned global sequence number (1-based).
	Seq uint64 `json:"seq"`
	// WallNS is the wall-clock nanosecond timestamp of the event.
	WallNS int64 `json:"wall_ns"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Shard is the engine's shard worker index (zero for a standalone
	// engine), or -1 for tier-level events outside any engine.
	Shard int32 `json:"shard"`
	// EdgeID is the stream edge the event belongs to.
	EdgeID uint64 `json:"edge_id"`
	// StreamTS is the edge (or detection) stream timestamp in nanoseconds.
	StreamTS int64 `json:"stream_ts"`
	// DurNS is the stage duration in nanoseconds, when the stage has one.
	DurNS int64 `json:"dur_ns"`
	// Query is the query name for match/deliver events.
	Query string `json:"query,omitempty"`
}

// Tracer samples edge-journey events into a fixed ring buffer. Sampling is
// deterministic on the edge ID (one edge in sampleEvery), so every tier
// independently selects the same edges and a journey can be stitched from
// the dump without threading trace context through the engine. A per-second
// recording cap bounds the cost under bursts. A nil *Tracer is valid and
// disabled: SampleEdge returns false before any event is even constructed,
// which is what makes the disabled path allocation-free.
type Tracer struct {
	sampleEvery uint64
	perSec      int64
	clock       Clock

	mu       sync.Mutex
	ring     []TraceEvent
	seq      uint64
	dropped  uint64
	curSec   int64
	inSecond int64
}

// NewTracer builds a tracer holding the last capacity events, sampling one
// edge in sampleEvery with at most perSec events recorded per wall second
// (0 means the 1000 default). It returns nil — a disabled tracer — when
// capacity or sampleEvery is not positive.
func NewTracer(capacity, sampleEvery, perSec int, clock Clock) *Tracer {
	if capacity <= 0 || sampleEvery <= 0 {
		return nil
	}
	if perSec <= 0 {
		perSec = 1000
	}
	if clock == nil {
		clock = SystemClock
	}
	return &Tracer{
		sampleEvery: uint64(sampleEvery),
		perSec:      int64(perSec),
		clock:       clock,
		ring:        make([]TraceEvent, capacity),
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SampleEdge reports whether events for this edge should be recorded. It is
// the hot-path gate: one modulo when tracing is on, one nil check when off.
func (t *Tracer) SampleEdge(id uint64) bool {
	if t == nil {
		return false
	}
	return id%t.sampleEvery == 0
}

// Record appends one event to the ring, stamping WallNS (if zero) and Seq.
// Events beyond the per-second cap are counted as dropped instead of
// recorded, so a burst cannot turn the tracer into the bottleneck it is
// meant to find.
func (t *Tracer) Record(ev TraceEvent) {
	if t == nil {
		return
	}
	if ev.WallNS == 0 {
		ev.WallNS = t.clock.Now()
	}
	t.mu.Lock()
	sec := ev.WallNS / int64(1e9)
	if sec != t.curSec {
		t.curSec, t.inSecond = sec, 0
	}
	if t.inSecond >= t.perSec {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.inSecond++
	t.seq++
	ev.Seq = t.seq
	t.ring[(t.seq-1)%uint64(len(t.ring))] = ev
	t.mu.Unlock()
}

// Dump copies the buffered events out, oldest first.
func (t *Tracer) Dump() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.seq
	cap64 := uint64(len(t.ring))
	if n > cap64 {
		n = cap64
	}
	out := make([]TraceEvent, 0, n)
	start := t.seq - n
	for i := uint64(0); i < n; i++ {
		out = append(out, t.ring[(start+i)%cap64])
	}
	return out
}

// Stats returns the cumulative recorded and dropped event counts.
func (t *Tracer) Stats() (recorded, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq, t.dropped
}
