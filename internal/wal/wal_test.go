package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

const testDSL = "query watch\nwindow 10m0s\nvertex a : Host\nvertex b : Host\nedge a -[flow]-> b\n"

// shortDSL is testDSL with a window narrower than any test's retention, so
// registering it widens nothing.
var shortDSL = strings.Replace(testDSL, "10m0s", "50ns", 1)

func testEdge(id uint64, ts int64) graph.StreamEdge {
	return graph.StreamEdge{
		Edge: graph.Edge{
			ID:        graph.EdgeID(id),
			Source:    graph.VertexID(id),
			Target:    graph.VertexID(id + 1),
			Type:      "flow",
			Timestamp: graph.Timestamp(ts),
			Attrs:     graph.Attributes{"bytes": graph.Int(int64(id) * 10)},
		},
		SourceType: "Host",
		TargetType: "Host",
	}
}

// openTest opens a manager with fast test defaults: no fsync, no automatic
// snapshots, everything else overridable via mod.
func openTest(t *testing.T, dir string, mod func(*Options)) (*Manager, *Recovery) {
	t.Helper()
	opts := Options{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1, Logf: t.Logf}
	if mod != nil {
		mod(&opts)
	}
	m, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return m, rec
}

// opsJSON canonicalizes recovered ops for prefix/equality comparison.
func opsJSON(t *testing.T, ops []Op) []string {
	t.Helper()
	out := make([]string, len(ops))
	for i, op := range ops {
		b, err := json.Marshal(op)
		if err != nil {
			t.Fatalf("marshaling op %d: %v", i, err)
		}
		out[i] = string(b)
	}
	return out
}

func segPath(dir string, seq uint64) string { return filepath.Join(dir, segName(seq)) }

// diskSegments lists the segment sequence numbers in dir, ascending.
func diskSegments(t *testing.T, dir string) []uint64 {
	t.Helper()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segmentSeqs(names)
}

// crash abandons a manager the way a SIGKILL would: the file is closed,
// nothing more is written — no final emitted checkpoint.
func crash(m *Manager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.joinLocked()
	m.log.close()
	m.closed = true
	m.stopAppenderLocked()
}

func TestRecordRoundTrip(t *testing.T) {
	edges := []graph.StreamEdge{testEdge(1, 100), testEdge(2, 200)}
	reg := RegisterRecord{Name: "watch", DSL: testDSL, Strategy: "lazy"}
	regPayload, err := encodeRegister(reg)
	if err != nil {
		t.Fatalf("encodeRegister: %v", err)
	}
	// Logs written while a query could opt into runtime re-planning carry an
	// "adaptive" key in each register record; it decodes away.
	adaptivePayload, err := json.Marshal(struct {
		RegisterRecord
		Adaptive string `json:"adaptive"`
	}{reg, "on"})
	if err != nil {
		t.Fatal(err)
	}
	emitted := []EmittedEntry{{Key: MatchKey("q", "sigB"), SpanStart: 7}, {Key: MatchKey("q", "sigA"), SpanStart: 3}}
	emittedPayload, err := encodeEmitted(emitted)
	if err != nil {
		t.Fatalf("encodeEmitted: %v", err)
	}
	// encodeEmitted sorts by key, so recovery sees sorted entries.
	sorted := []EmittedEntry{{Key: MatchKey("q", "sigA"), SpanStart: 3}, {Key: MatchKey("q", "sigB"), SpanStart: 7}}
	man := manifest{Newest: 200, Retention: 100, Cutoff: 90, Registrations: []RegisterRecord{reg}, Emitted: sorted}
	manPayload, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rec     byte
		payload []byte
		want    Op
	}{
		{RecManifest, manPayload, Op{manifest: &man}},
		{RecEdgeBatch, wire.AppendEdges(nil, edges), Op{Edges: edges}},
		{RecRegister, regPayload, Op{Register: &reg}},
		{RecRegister, adaptivePayload, Op{Register: &reg}},
		{RecUnregister, []byte("watch"), Op{Name: "watch"}},
		{RecAdvance, encodeAdvance(-42), Op{TS: -42}},
		{RecEmitted, emittedPayload, Op{Emitted: sorted}},
	}
	var buf []byte
	for _, c := range cases {
		buf = wire.AppendFrame(buf, c.rec, c.payload)
	}
	off := 0
	for i, c := range cases {
		rec, payload, n, err := wire.DecodeFrame(buf[off:])
		if err != nil {
			t.Fatalf("frame %d: DecodeFrame: %v", i, err)
		}
		if rec != c.rec || !bytes.Equal(payload, c.payload) {
			t.Fatalf("frame %d: got (type %d, %d bytes), want (type %d, %d bytes)", i, rec, len(payload), c.rec, len(c.payload))
		}
		op, err := decodeOp(rec, payload, nil)
		if err != nil {
			t.Fatalf("frame %d: decodeOp: %v", i, err)
		}
		c.want.Type = c.rec
		if !reflect.DeepEqual(op, c.want) {
			t.Fatalf("record type %d did not round-trip:\ngot  %+v\nwant %+v", c.rec, op, c.want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
	// The envelope carries any type; which ones a segment admits is this
	// package's business.
	if _, err := decodeOp(0x7f, []byte("payload"), nil); err == nil {
		t.Fatal("unknown record type decoded")
	}
}

func TestEncodeEmittedDeterministic(t *testing.T) {
	a := []EmittedEntry{{Key: "b", SpanStart: 2}, {Key: "a", SpanStart: 1}, {Key: "c", SpanStart: 3}}
	b := []EmittedEntry{{Key: "c", SpanStart: 3}, {Key: "a", SpanStart: 1}, {Key: "b", SpanStart: 2}}
	pa, err := encodeEmitted(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := encodeEmitted(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, pb) {
		t.Fatalf("same logical checkpoint encoded differently:\n%s\n%s", pa, pb)
	}
}

// TestManifestDeterministic: the manifest's emitted set is read out of a
// map, so two checkpoints of the same state only encode the same bytes if
// the entries are sorted on the way out.
func TestManifestDeterministic(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, nil)
	defer m.Close()
	for i := 0; i < 32; i++ {
		m.NoteEmitted("q", fmt.Sprintf("sig-%02d", i), int64(i))
	}
	var first []byte
	for seq := uint64(2); seq <= 5; seq++ {
		if err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(segPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = seg
		} else if !bytes.Equal(seg, first) {
			t.Fatalf("segment %d's manifest differs from segment 2's for the same state:\n%s\n%s", seq, seg, first)
		}
	}
}

func TestAppendAndRecoverAllRecordTypes(t *testing.T) {
	dir := t.TempDir()
	m, rec := openTest(t, dir, nil)
	if len(rec.Ops) != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	if ts, seen := m.clock.Newest(); seen {
		t.Fatalf("fresh dir recovered stream time %d", ts)
	}
	if err := m.AppendRegister(RegisterRecord{Name: "watch", DSL: testDSL, Strategy: "lazy"}); err != nil {
		t.Fatalf("AppendRegister: %v", err)
	}
	batch := []graph.StreamEdge{testEdge(1, 100), testEdge(2, 150)}
	if err := m.AppendEdges(batch); err != nil {
		t.Fatalf("AppendEdges: %v", err)
	}
	if err := m.AppendAdvance(500); err != nil {
		t.Fatalf("AppendAdvance: %v", err)
	}
	if err := m.AppendUnregister("watch"); err != nil {
		t.Fatalf("AppendUnregister: %v", err)
	}

	// Crash (no Close): reopen and replay the log tail.
	crash(m)
	m2, rec2 := openTest(t, dir, nil)
	defer m2.Close()
	types := make([]byte, len(rec2.Ops))
	for i, op := range rec2.Ops {
		types[i] = op.Type
	}
	want := []byte{RecRegister, RecEdgeBatch, RecAdvance, RecUnregister}
	if !bytes.Equal(types, want) {
		t.Fatalf("recovered op types: got %v, want %v", types, want)
	}
	if !reflect.DeepEqual(rec2.Ops[1].Edges, batch) {
		t.Fatalf("recovered batch mismatch: %+v", rec2.Ops[1].Edges)
	}
	if ts, _ := m2.clock.Newest(); ts != 500 {
		t.Fatalf("recovered newest time: got %d, want 500", ts)
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	// The unregister replayed last, so the next manifest lists no query.
	if n := len(m2.regs); n != 0 {
		t.Fatalf("active registrations after unregister: %d", n)
	}
}

// TestRecoveredBatchesShareRepeatedMaps: a segment's batches replay through
// one interner, so each recovered batch equals its uncached decode while an
// attribute map every edge repeats is recovered once and shared.
func TestRecoveredBatchesShareRepeatedMaps(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, nil)
	var batches [][]graph.StreamEdge
	for b := 0; b < 4; b++ {
		var batch []graph.StreamEdge
		for i := 0; i < 3; i++ {
			se := testEdge(uint64(3*b+i), int64(3*b+i)*10)
			// Only the repeated block: each edge's own "bytes" map could
			// hash to its slot under the interner's random seed and evict
			// it, which the direct-mapped cache allows.
			se.Edge.Attrs = nil
			se.SourceAttrs = graph.Attributes{"site": graph.String("eu-1")}
			batch = append(batch, se)
		}
		if err := m.AppendEdges(batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		batches = append(batches, batch)
	}
	crash(m)

	m2, rec := openTest(t, dir, nil)
	defer m2.Close()
	if len(rec.Ops) != len(batches) {
		t.Fatalf("recovered %d ops, want %d", len(rec.Ops), len(batches))
	}
	shared := reflect.ValueOf(rec.Ops[0].Edges[0].SourceAttrs).UnsafePointer()
	for b, op := range rec.Ops {
		uncached, err := wire.DecodeEdges(wire.AppendEdges(nil, batches[b]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(op.Edges, uncached) {
			t.Fatalf("batch %d: recovered %+v, want %+v", b, op.Edges, uncached)
		}
		for i, se := range op.Edges {
			if reflect.ValueOf(se.SourceAttrs).UnsafePointer() != shared {
				t.Fatalf("batch %d edge %d: the repeated source map was recovered afresh", b, i)
			}
		}
	}
}

func TestSegmentRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	const batches = 20
	for i := 0; i < batches; i++ {
		if err := m.AppendEdges([]graph.StreamEdge{testEdge(uint64(i), int64(i)*10)}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if seqs := diskSegments(t, dir); len(seqs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", seqs)
	}
	if st := m.Stats(); st.Segments < 3 {
		t.Fatalf("stats segments: %d", st.Segments)
	}
	crash(m)

	m2, rec := openTest(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	defer m2.Close()
	if len(rec.Ops) != batches {
		t.Fatalf("recovered %d ops across segments, want %d", len(rec.Ops), batches)
	}
	for i, op := range rec.Ops {
		if op.Type != RecEdgeBatch || len(op.Edges) != 1 || op.Edges[0].Edge.ID != graph.EdgeID(i) {
			t.Fatalf("op %d out of order: %+v", i, op)
		}
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, nil)
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(1, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(2, 200)}); err != nil {
		t.Fatal(err)
	}

	// A crash mid-write leaves a partial frame: append half of a valid frame.
	crash(m)
	full := wire.AppendFrame(nil, RecUnregister, []byte("never-finished"))
	path := segPath(dir, 1)
	prevSize := appendBytes(t, path, full[:len(full)/2])

	m2, rec := openTest(t, dir, nil)
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Ops) != 2 {
		t.Fatalf("recovered %d ops, want the 2 complete batches", len(rec.Ops))
	}
	if st := m2.Stats(); st.TornTruncations != 1 {
		t.Fatalf("torn truncation counter: %d", st.TornTruncations)
	}
	// The file was physically truncated back to the last valid boundary.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != prevSize {
		t.Fatalf("segment size after truncation: got %d, want %d", st.Size(), prevSize)
	}

	// The manager stays writable: appends go to the fresh segment and a
	// third reopen sees old ops plus the new one.
	if err := m2.AppendAdvance(900); err != nil {
		t.Fatal(err)
	}
	m3, rec3 := openTest(t, dir, nil)
	defer m3.Close()
	if len(rec3.Ops) != 3 || rec3.Ops[2].Type != RecAdvance || rec3.Ops[2].TS != 900 {
		t.Fatalf("ops after post-truncation append: %+v", rec3.Ops)
	}
	if rec3.TornTail {
		t.Fatal("second reopen reported the already-truncated tail")
	}
}

// appendBytes appends raw bytes to path, returning the size before the
// append (the last valid boundary for truncation checks).
func appendBytes(t *testing.T, path string, b []byte) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestCRCMismatchTruncates(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, nil)
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(1, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendUnregister("ghost"); err != nil {
		t.Fatal(err)
	}
	crash(m)
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the final frame: CRC now mismatches.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, rec := openTest(t, dir, nil)
	defer m2.Close()
	if !rec.TornTail {
		t.Fatal("corrupt tail not reported")
	}
	if len(rec.Ops) != 1 || rec.Ops[0].Type != RecEdgeBatch {
		t.Fatalf("recovered ops after corrupt frame: %+v", rec.Ops)
	}
}

func TestDropsSegmentsAfterTruncatedOne(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	const batches = 20
	for i := 0; i < batches; i++ {
		if err := m.AppendEdges([]graph.StreamEdge{testEdge(uint64(i), int64(i)*10)}); err != nil {
			t.Fatal(err)
		}
	}
	seqs := diskSegments(t, dir)
	if len(seqs) < 3 {
		t.Fatalf("need >=3 segments for this test, got %v", seqs)
	}
	// Corrupt the tail of a MIDDLE segment: everything after it is untrusted.
	crash(m)
	mid := seqs[len(seqs)/2]
	appendBytes(t, segPath(dir, mid), []byte{0x01, 0x02, 0x03})

	m2, rec := openTest(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	defer m2.Close()
	if !rec.TornTail {
		t.Fatal("torn middle segment not reported")
	}
	for _, op := range rec.Ops {
		if op.Type != RecEdgeBatch {
			t.Fatalf("unexpected op type %d", op.Type)
		}
	}
	// Ops must be a strict prefix of the original sequence, ending before
	// the corrupted segment's successor could contribute.
	for i, op := range rec.Ops {
		if op.Edges[0].Edge.ID != graph.EdgeID(i) {
			t.Fatalf("op %d: edge ID %d — recovered ops are not a prefix", i, op.Edges[0].Edge.ID)
		}
	}
	if len(rec.Ops) >= batches {
		t.Fatalf("recovered %d ops despite mid-log corruption", len(rec.Ops))
	}
	// Segments after the truncated one are deleted from disk.
	for _, seq := range diskSegments(t, dir) {
		if seq > mid && seq != m2.log.seq {
			t.Fatalf("segment %d survived past truncated segment %d", seq, mid)
		}
	}
}

// TestCheckpointDropsCoveredSegmentsAndRecovers: a checkpoint deletes the
// segments whose every edge has left the window, and what remains recovers
// from the oldest retained segment's manifest — registrations, emitted set
// and watermark included — with no snapshot file anywhere.
func TestCheckpointDropsCoveredSegmentsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	bounded := func(o *Options) { o.Retention, o.Slack = 100, 10 }
	m, _ := openTest(t, dir, bounded)
	if err := m.AppendRegister(RegisterRecord{Name: "watch", DSL: shortDSL}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRegister(RegisterRecord{Name: "other", DSL: shortDSL}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendUnregister("other"); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(1, 100), testEdge(2, 200)}); err != nil {
		t.Fatal(err)
	}
	m.NoteEmitted("watch", "sig-1", 950)
	// First checkpoint: segment 1 still holds the window (cutoff 90), so it
	// stays; only "watch" goes into segment 2's manifest.
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if seqs := diskSegments(t, dir); !reflect.DeepEqual(seqs, []uint64{1, 2}) {
		t.Fatalf("segments after a checkpoint inside the window: %v", seqs)
	}
	live := []graph.StreamEdge{testEdge(3, 1000)}
	if err := m.AppendEdges(live); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint: cutoff 1000-100-10 = 890 is past segment 1's
	// newest edge (200) but not segment 2's.
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if st := m.Stats(); st.Snapshots != 2 {
		t.Fatalf("checkpoint counter: %d", st.Snapshots)
	}
	if seqs := diskSegments(t, dir); !reflect.DeepEqual(seqs, []uint64{2, 3}) {
		t.Fatalf("segments after the covering checkpoint: %v", seqs)
	}
	if err := m.AppendAdvance(1010); err != nil {
		t.Fatal(err)
	}
	crash(m)

	m2, rec := openTest(t, dir, bounded)
	defer m2.Close()
	types := make([]byte, len(rec.Ops))
	for i, op := range rec.Ops {
		types[i] = op.Type
	}
	// Segment 2's manifest registrations first (only "watch" survived the
	// unregister), then its records and segment 3's in order.
	want := []byte{RecRegister, RecEdgeBatch, RecAdvance}
	if !bytes.Equal(types, want) {
		t.Fatalf("recovered op types: got %v, want %v", types, want)
	}
	if rec.Ops[0].Register.Name != "watch" {
		t.Fatalf("recovered registration: %+v", rec.Ops[0].Register)
	}
	if !reflect.DeepEqual(rec.Ops[1].Edges, live) {
		t.Fatalf("recovered window mismatch: %+v", rec.Ops[1].Edges)
	}
	if ts, _ := m2.clock.Newest(); ts != 1010 {
		t.Fatalf("newest time: got %d, want 1010", ts)
	}
	if got, ok := rec.Emitted[MatchKey("watch", "sig-1")]; !ok || got != 950 {
		t.Fatalf("emitted-set not recovered from the manifest: %v", rec.Emitted)
	}
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, ok := parseSegName(name); !ok {
			t.Fatalf("data dir holds %q: the segments are the only durable structure", name)
		}
	}
}

// TestLogIsTheWindow appends several windows' worth of batches under a
// small SnapshotEvery: segments must fall off the front of the directory,
// recovery must hand back exactly the edges inside the cutoff in arrival
// order, and the Manager must hold none of them.
func TestLogIsTheWindow(t *testing.T) {
	dir := t.TempDir()
	const (
		perBatch  = 32
		retention = 20 * perBatch // stream ns; edges are 1 ns apart
		slack     = perBatch
		total     = 40 * retention
	)
	bounded := func(o *Options) { o.Retention, o.Slack, o.SnapshotEvery = retention, slack, 4 }
	m, _ := openTest(t, dir, bounded)
	heapAfter := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	batch := make([]graph.StreamEdge, perBatch)
	var early uint64
	for id := uint64(1); id <= total; id += perBatch {
		for i := range batch {
			batch[i] = testEdge(id+uint64(i), int64(id)+int64(i))
		}
		if err := m.AppendEdges(batch); err != nil {
			t.Fatalf("batch at %d: %v", id, err)
		}
		if id == 4*retention+1 {
			early = heapAfter()
		}
	}
	// A shadow window alone would hold retention+slack edges of some 500
	// bytes each; anything growing with the stream would hold 36 windows.
	if late := heapAfter(); late > early+64<<10 {
		t.Fatalf("heap grew from %d to %d bytes over %d edges: the manager retains what it appends", early, late, total-4*retention)
	}
	if len(m.sealed) > 2*(retention+slack)/(4*perBatch) {
		t.Fatalf("%d sealed segments tracked for a window of %d batches", len(m.sealed), retention/perBatch)
	}
	seqs := diskSegments(t, dir)
	if seqs[0] < 30 {
		t.Fatalf("lowest segment on disk is %d after 40 windows: the prefix is not being deleted (%v)", seqs[0], seqs)
	}
	crash(m)

	m2, rec := openTest(t, dir, bounded)
	defer m2.Close()
	cutoff := int64(total) - retention - slack
	next := uint64(cutoff)
	for _, op := range rec.Ops {
		if op.Type != RecEdgeBatch {
			t.Fatalf("unexpected op type %d", op.Type)
		}
		for _, e := range op.Edges {
			if uint64(e.Edge.ID) != next {
				t.Fatalf("recovered edge %d, want %d: not exactly the edges inside cutoff %d, in arrival order", e.Edge.ID, next, cutoff)
			}
			next++
		}
	}
	if next != total+1 {
		t.Fatalf("recovery stopped at edge %d of %d", next-1, total)
	}
}

// TestCrashBeforeManifestSynced: a crash between creating the next segment
// and syncing its manifest leaves a segment that holds nothing; recovery
// discards it and rebuilds from the segments before it, which a checkpoint
// never deletes ahead of that sync.
func TestCrashBeforeManifestSynced(t *testing.T) {
	for _, torn := range []string{"magic-only", "half-manifest", "half-magic"} {
		t.Run(torn, func(t *testing.T) {
			dir := t.TempDir()
			m, _ := openTest(t, dir, nil)
			if err := m.AppendRegister(RegisterRecord{Name: "watch", DSL: testDSL}); err != nil {
				t.Fatal(err)
			}
			batch := []graph.StreamEdge{testEdge(1, 100), testEdge(2, 200)}
			if err := m.AppendEdges(batch); err != nil {
				t.Fatal(err)
			}
			crash(m)
			head, err := os.ReadFile(segPath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			_, _, n, err := wire.DecodeFrame(head[len(segMagic):])
			if err != nil {
				t.Fatal(err)
			}
			cut := map[string]int{"magic-only": len(segMagic), "half-manifest": len(segMagic) + n/2, "half-magic": len(segMagic) / 2}[torn]
			if err := os.WriteFile(segPath(dir, 2), head[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			m2, rec := openTest(t, dir, nil)
			defer m2.Close()
			if !rec.TornTail {
				t.Fatal("torn segment not reported")
			}
			if len(rec.Ops) != 2 || rec.Ops[0].Type != RecRegister || !reflect.DeepEqual(rec.Ops[1].Edges, batch) {
				t.Fatalf("recovered ops: %+v", rec.Ops)
			}
			// The torn file is gone; the manager appends to a fresh one.
			if seqs := diskSegments(t, dir); !reflect.DeepEqual(seqs, []uint64{1, 3}) {
				t.Fatalf("segments after recovery: %v", seqs)
			}
		})
	}
}

// TestForeignFormatRefusedUntouched: a v1 data directory — a segment with
// the old magic, or a leftover snapshot file — makes Open fail with
// ErrFormatVersion and leaves every byte where it was.
func TestForeignFormatRefusedUntouched(t *testing.T) {
	v1 := append([]byte("SWWAL001"), wire.AppendFrame(nil, RecUnregister, []byte("watch"))...)
	for name, file := range map[string]string{"v1-segment": segName(1), "v1-snapshot": "snapshot"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// A real v2 segment next to it: nothing may be touched, valid or not.
			m, _ := openTest(t, dir, nil)
			crash(m)
			if err := os.Rename(segPath(dir, 1), segPath(dir, 7)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, file), v1, 0o644); err != nil {
				t.Fatal(err)
			}
			before := readDir(t, dir)
			_, _, err := Open(Options{Dir: dir, Logf: t.Logf})
			if !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("Open: %v, want ErrFormatVersion", err)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused directory was modified:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// readDir maps every file in dir to its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(names))
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

func TestEmittedCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, func(o *Options) { o.EmittedEvery = 2 })
	m.NoteEmitted("q", "a", 10)
	m.NoteEmitted("q", "b", 20) // second note hits EmittedEvery: checkpoint frame
	m.NoteEmitted("q", "c", 30) // un-checkpointed; lost on crash
	// Duplicate notes never re-count toward the checkpoint threshold.
	m.NoteEmitted("q", "a", 10)

	m2, rec := openTest(t, dir, func(o *Options) { o.EmittedEvery = 2 })
	defer m2.Close()
	if len(rec.Emitted) != 2 {
		t.Fatalf("recovered emitted-set: %v", rec.Emitted)
	}
	for _, sig := range []string{"a", "b"} {
		if _, ok := rec.Emitted[MatchKey("q", sig)]; !ok {
			t.Fatalf("checkpointed match %q not recovered", sig)
		}
	}
	if _, ok := rec.Emitted[MatchKey("q", "c")]; ok {
		t.Fatal("un-checkpointed match survived the crash — would suppress delivery")
	}
}

func TestCloseIsStrictlyExactOnce(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTest(t, dir, func(o *Options) { o.EmittedEvery = 1000 })
	if err := m.AppendRegister(RegisterRecord{Name: "watch", DSL: testDSL}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(1, 100)}); err != nil {
		t.Fatal(err)
	}
	// Far below EmittedEvery: only Close's final checkpoint can persist it.
	m.NoteEmitted("watch", "sig-1", 100)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Append after Close is a silent no-op, not a crash.
	if err := m.AppendAdvance(999); err != nil {
		t.Fatalf("append after close: %v", err)
	}

	m2, rec := openTest(t, dir, nil)
	defer m2.Close()
	if _, ok := rec.Emitted[MatchKey("watch", "sig-1")]; !ok {
		t.Fatal("graceful close lost the emitted-set: restart would redeliver")
	}
	if ts, _ := m2.clock.Newest(); ts != 100 {
		t.Fatalf("newest time: got %d, want 100", ts)
	}
	if rec.TornTail {
		t.Fatal("graceful close left a torn tail")
	}
}

func TestEmittedEvictionAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	bounded := func(o *Options) {
		o.Retention = 100 // nanoseconds of stream time
		o.Slack = 10
	}
	m, _ := openTest(t, dir, bounded)
	m.NoteEmitted("q", "old", 50)
	m.NoteEmitted("q", "new", 900)
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(1, 1000)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(m)
	// cutoff = 1000 - 100 - 10 = 890: "old" (span 50) can no longer be
	// re-derived from the retained window, so its suppression entry goes.
	m2, rec := openTest(t, dir, bounded)
	defer m2.Close()
	if _, ok := rec.Emitted[MatchKey("q", "old")]; ok {
		t.Fatal("expired emitted entry survived checkpoint eviction")
	}
	if _, ok := rec.Emitted[MatchKey("q", "new")]; !ok {
		t.Fatal("live emitted entry was evicted")
	}
}

// TestRecoveryKeepsAWindowBeforeTimeZero: stream time starts unseen, not at
// zero, so a window of negative timestamps is not below the log's cutoff
// and every edge of it is recovered after a crash.
func TestRecoveryKeepsAWindowBeforeTimeZero(t *testing.T) {
	bounded := func(o *Options) { o.Retention = time.Second }
	m, _ := openTest(t, t.TempDir(), bounded)
	base := -10 * int64(time.Second)
	batch := []graph.StreamEdge{testEdge(1, base), testEdge(2, base+1000), testEdge(3, base+2000)}
	if err := m.AppendEdges(batch); err != nil {
		t.Fatal(err)
	}
	crash(m)
	m2, rec := openTest(t, m.dir, bounded)
	defer m2.Close()
	var got []graph.StreamEdge
	for _, op := range rec.Ops {
		got = append(got, op.Edges...)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("recovered %d of %d edges at ts ≈ −10 s: %+v", len(got), len(batch), got)
	}
}

// TestCutoffIsTheDynamicGraphsCutoff: the log and the engine's dynamic graph
// each follow stream time on a graph.Clock, so fed the same out-of-order
// stream and idle-time advances their expiry bounds agree at every step,
// before the first edge included (both NoCutoff), and a retention widened
// later moves neither bound back.
func TestCutoffIsTheDynamicGraphsCutoff(t *testing.T) {
	const retention, slack = 100, 10
	m, _ := openTest(t, t.TempDir(), func(o *Options) { o.Retention, o.Slack = retention, slack })
	defer m.Close()
	dyn := graph.NewDynamic(retention, graph.WithSlack(slack))
	if got := m.clock.Cutoff(); got != graph.NoCutoff || dyn.Cutoff() != graph.NoCutoff {
		t.Fatalf("cutoffs before any edge: log %d, graph %d", got, dyn.Cutoff())
	}
	for i, ts := range []int64{500, 495, 640, 633, 1000, 992, 1500} {
		se := testEdge(uint64(i+1), ts)
		if _, err := dyn.Apply(se); err != nil {
			t.Fatal(err)
		}
		if err := m.AppendEdges([]graph.StreamEdge{se}); err != nil {
			t.Fatal(err)
		}
		if got := m.clock.Cutoff(); got != dyn.Cutoff() {
			t.Fatalf("after edge at %d: log cutoff %d, graph cutoff %d", ts, got, dyn.Cutoff())
		}
	}
	dyn.AdvanceTo(2000)
	if err := m.AppendAdvance(2000); err != nil {
		t.Fatal(err)
	}
	if got := m.clock.Cutoff(); got != 2000-retention-slack || got != dyn.Cutoff() {
		t.Fatalf("after advancing to 2000: log cutoff %d, graph cutoff %d", got, dyn.Cutoff())
	}
	m.clock.Widen(10 * retention)
	dyn.Widen(10 * retention)
	if got := m.clock.Cutoff(); got != 2000-retention-slack || got != dyn.Cutoff() {
		t.Fatalf("a wider retention moved the cutoffs back: log %d, graph %d", got, dyn.Cutoff())
	}
	dyn.AdvanceTo(2500)
	if err := m.AppendAdvance(2500); err != nil {
		t.Fatal(err)
	}
	if got := m.clock.Cutoff(); got != 2000-retention-slack || got != dyn.Cutoff() {
		t.Fatalf("after advancing to 2500 under the wider retention: log cutoff %d, graph cutoff %d", got, dyn.Cutoff())
	}
}

// TestPrefixRecovery is the property test the frame format exists for: ANY
// byte prefix of a segment — every crash point — must open without error
// and recover a frame-aligned prefix of the full operation sequence.
func TestPrefixRecovery(t *testing.T) {
	base := t.TempDir()
	full := filepath.Join(base, "full")
	m, _ := openTest(t, full, nil)
	if err := m.AppendRegister(RegisterRecord{Name: "watch", DSL: testDSL, Strategy: "eager"}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(1, 100), testEdge(2, 150)}); err != nil {
		t.Fatal(err)
	}
	m.NoteEmitted("watch", "sig-1", 100)
	m.NoteEmitted("watch", "sig-2", 150) // EmittedEvery default won't fire; force it
	m.mu.Lock()
	m.checkpointEmittedLocked()
	m.mu.Unlock()
	if err := m.AppendAdvance(400); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendUnregister("watch"); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(3, 500)}); err != nil {
		t.Fatal(err)
	}
	crash(m)

	data, err := os.ReadFile(segPath(full, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, fullRec := openTest(t, full, nil)
	fullOps := opsJSON(t, fullRec.Ops)

	for cut := 0; cut <= len(data); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("p%05d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dir, 1), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		pm, rec, err := Open(Options{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("prefix %d/%d bytes: Open failed: %v", cut, len(data), err)
		}
		got := opsJSON(t, rec.Ops)
		if len(got) > len(fullOps) {
			t.Fatalf("prefix %d: recovered %d ops, more than the full log's %d", cut, len(got), len(fullOps))
		}
		for i := range got {
			if got[i] != fullOps[i] {
				t.Fatalf("prefix %d: op %d diverges from full log:\ngot  %s\nwant %s", cut, i, got[i], fullOps[i])
			}
		}
		if cut == len(data) && len(got) != len(fullOps) {
			t.Fatalf("complete copy recovered %d ops, want %d", len(got), len(fullOps))
		}
		// The recovered manager must stay writable.
		if err := pm.AppendAdvance(9999); err != nil {
			t.Fatalf("prefix %d: append after recovery: %v", cut, err)
		}
		crash(pm)
	}
}

// FuzzWALDecode fuzzes the record payloads: whatever bytes a frame with a
// valid CRC carries, decodeOp must return an Op or an error, never panic.
// (The envelope itself has one fuzzer, wire's FuzzFrameDecode.)
func FuzzWALDecode(f *testing.F) {
	// Seed with the payloads of a real segment holding every record type.
	dir := f.TempDir()
	m, _, err := Open(Options{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	if err := m.AppendRegister(RegisterRecord{Name: "watch", DSL: testDSL}); err != nil {
		f.Fatal(err)
	}
	if err := m.AppendEdges([]graph.StreamEdge{testEdge(1, 100)}); err != nil {
		f.Fatal(err)
	}
	if err := m.AppendAdvance(200); err != nil {
		f.Fatal(err)
	}
	m.NoteEmitted("watch", "sig", 100)
	// The second segment's manifest lists the registration and the emission.
	if err := m.Snapshot(); err != nil {
		f.Fatal(err)
	}
	if err := m.AppendUnregister("watch"); err != nil {
		f.Fatal(err)
	}
	m.NoteEmitted("watch", "sig-2", 150)
	if err := m.Close(); err != nil {
		f.Fatal(err)
	}
	for _, seq := range []uint64{1, 2} {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			f.Fatal(err)
		}
		for off := len(segMagic); off < len(data); {
			rec, payload, n, err := wire.DecodeFrame(data[off:])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(rec, payload)
			// Torn: a manifest cut short is the seed that matters most — it
			// is what a crash during rotation leaves.
			f.Add(rec, payload[:len(payload)/2])
			off += n
		}
	}
	f.Add(byte(0), []byte{})

	f.Fuzz(func(t *testing.T, rec byte, payload []byte) {
		op, err := decodeOp(rec, payload, nil)
		if err == nil && op.Type != rec {
			t.Fatalf("decodeOp(%d) returned type %d", rec, op.Type)
		}
	})
}
