package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
	"github.com/streamworks/streamworks/internal/wire"
)

func testNetflowWorkload() gen.Workload {
	cfg := gen.NetFlowConfig{
		Hosts:       80,
		Servers:     10,
		Edges:       600,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        51,
	}
	return gen.NetFlowWorkload(cfg, 90*time.Second)
}

func testNewsWorkload() gen.Workload {
	cfg := gen.DefaultNewsConfig()
	cfg.Articles = 80
	cfg.Keywords = 40
	cfg.Locations = 8
	cfg.EventClusters = 1
	return gen.NewsWorkload(cfg, 5*time.Minute, 2)
}

// attrHeavyEdge exercises every attribute kind on every attribute map.
func attrHeavyEdge() graph.StreamEdge {
	return graph.StreamEdge{
		Edge: graph.Edge{
			ID:        18446744073709551615, // max uint64
			Source:    42,
			Target:    7,
			Type:      "flow",
			Timestamp: -12345, // negative stream time must survive varint
			Attrs: graph.Attributes{
				"bytes":   graph.Int(-9e15),
				"proto":   graph.String("tcp"),
				"rate":    graph.Float(3.14159),
				"flagged": graph.Bool(true),
				"empty":   graph.String(""),
			},
		},
		SourceType:  "host",
		TargetType:  "server",
		SourceAttrs: graph.Attributes{"os": graph.String("linux"), "up": graph.Bool(false)},
		TargetAttrs: graph.Attributes{"load": graph.Float(0.5)},
	}
}

func testMatchReport() export.MatchReport {
	return export.MatchReport{
		Query:      "exfil",
		DetectedAt: 1371859200000000000,
		SpanStart:  1371859100000000000,
		SpanEnd:    1371859200000000000,
		Signature:  "0:17|1:42|2:99",
		Bindings: []export.Binding{
			{Variable: "a", VertexID: 17},
			{Variable: "b", VertexID: 42},
		},
		EdgeIDs: []uint64{17, 42, 99},
	}
}

// TestEdgeRoundTrip is the decode∘encode = id property over generated
// netflow/news edges plus a handcrafted attr-heavy edge.
func TestEdgeRoundTrip(t *testing.T) {
	edges := []graph.StreamEdge{attrHeavyEdge(), {}}
	for _, w := range []gen.Workload{testNetflowWorkload(), testNewsWorkload()} {
		edges = append(edges, w.Edges...)
	}
	var scratch []byte
	for i, se := range edges {
		se.ArrivedWallNS = 0 // process-local, never serialized
		var frame []byte
		frame, scratch = wire.AppendEdgeFrame(frame, scratch, se)
		typ, payload, n, err := wire.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("edge %d: DecodeFrame: %v", i, err)
		}
		if typ != wire.FrameEdge || n != len(frame) {
			t.Fatalf("edge %d: typ=%d n=%d len=%d", i, typ, n, len(frame))
		}
		got, err := wire.DecodeEdge(payload)
		if err != nil {
			t.Fatalf("edge %d: DecodeEdge: %v", i, err)
		}
		// Byte-determinism doubles as structural equality, sidestepping
		// nil-vs-empty map noise: identical re-encode ⇒ identical value.
		re := wire.AppendEdge(nil, got)
		if !bytes.Equal(re, wire.AppendEdge(nil, se)) {
			t.Fatalf("edge %d: re-encode diverges\n got %+v\nwant %+v", i, got, se)
		}
	}
	// Full structural equality on the handcrafted edge.
	want := attrHeavyEdge()
	var frame []byte
	frame, _ = wire.AppendEdgeFrame(frame, nil, want)
	_, payload, _, err := wire.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeEdge(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestEncodeByteDeterministic re-encodes the same logical value built with
// different map insertion orders and demands identical bytes.
func TestEncodeByteDeterministic(t *testing.T) {
	base := attrHeavyEdge()
	ref := wire.AppendEdge(nil, base)
	for i := 0; i < 32; i++ {
		// Rebuild the attribute maps from scratch; Go map iteration order
		// varies run to run, so 32 rebuilds exercise different layouts.
		rebuilt := attrHeavyEdge()
		if got := wire.AppendEdge(nil, rebuilt); !bytes.Equal(got, ref) {
			t.Fatalf("encode not deterministic on rebuild %d", i)
		}
	}
}

func TestMatchRoundTrip(t *testing.T) {
	for i, want := range []export.MatchReport{testMatchReport(), {}} {
		var frame, scratch []byte
		frame, _ = wire.AppendMatchFrame(frame, scratch, want)
		typ, payload, n, err := wire.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("match %d: DecodeFrame: %v", i, err)
		}
		if typ != wire.FrameMatch || n != len(frame) {
			t.Fatalf("match %d: typ=%d n=%d len=%d", i, typ, n, len(frame))
		}
		got, err := wire.DecodeMatch(payload)
		if err != nil {
			t.Fatalf("match %d: DecodeMatch: %v", i, err)
		}
		if !bytes.Equal(wire.AppendMatch(nil, got), wire.AppendMatch(nil, want)) {
			t.Fatalf("match %d: re-encode diverges\n got %+v\nwant %+v", i, got, want)
		}
	}
	want := testMatchReport()
	payload := wire.AppendMatch(nil, want)
	got, err := wire.DecodeMatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestMatchBindingCostsItsNameAndID: a binding is encoded as its variable
// name and its vertex ID and nothing else, so one more binding named "v"
// with a one-byte vertex ID grows the payload by exactly three bytes.
func TestMatchBindingCostsItsNameAndID(t *testing.T) {
	rep := testMatchReport()
	before := len(wire.AppendMatch(nil, rep))
	rep.Bindings = append(rep.Bindings, export.Binding{Variable: "v", VertexID: 5})
	if grew := len(wire.AppendMatch(nil, rep)) - before; grew != 3 {
		t.Fatalf("one binding costs %d bytes, want 3 (name length, name, vertex ID)", grew)
	}
}

// TestCountsBoundedByTheirBytes: every count a payload declares is bounded
// by what the rest of the payload can hold at its elements' smallest
// encoding. One element more than fits is refused by name before anything
// is sized by it; exactly as many as fit gets past the count (the zero
// filler may still fail later, but not on the count).
func TestCountsBoundedByTheirBytes(t *testing.T) {
	uv := func(dst []byte, vs ...uint64) []byte {
		for _, v := range vs {
			dst = binary.AppendUvarint(dst, v)
		}
		return dst
	}
	matchHead := func() []byte { // query "q", three times, empty signature
		return append(uv(nil, 1), append([]byte{'q'}, uv(nil, 0, 0, 0, 0)...)...)
	}
	decodeMatch := func(p []byte) error { _, err := wire.DecodeMatch(p); return err }
	decodeEdge := func(p []byte) error { _, err := wire.DecodeEdge(p); return err }
	decodeEdges := func(p []byte) error { _, err := wire.DecodeEdges(p); return err }
	const filler = 60
	for _, tc := range []struct {
		count  string
		size   int
		head   []byte
		decode func([]byte) error
	}{
		{"binding count", 2, matchHead(), decodeMatch},
		{"edge-ID count", 1, uv(matchHead(), 0), decodeMatch},
		{"attr count", 3, uv(nil, 1, 2, 3, 0, 0, 0, 0), decodeEdge}, // id, ends, "", ts, "", ""
		{"edge count", 10, nil, decodeEdges},
	} {
		payload := func(n int) []byte {
			return append(uv(bytes.Clone(tc.head), uint64(n)), make([]byte, filler)...)
		}
		err := tc.decode(payload(filler/tc.size + 1))
		if !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), tc.count) {
			t.Errorf("%s: %d elements over %d bytes: got %v, want ErrCorrupt naming the count", tc.count, filler/tc.size+1, filler, err)
		}
		if err := tc.decode(payload(filler / tc.size)); err != nil && strings.Contains(err.Error(), tc.count+" ") {
			t.Errorf("%s: %d elements over %d bytes refused: %v", tc.count, filler/tc.size, filler, err)
		}
	}
}

// TestReaderStream decodes a mixed stream through the incremental Reader,
// via a one-byte-at-a-time reader to exercise partial reads.
func TestReaderStream(t *testing.T) {
	edges := testNetflowWorkload().Edges[:64]
	rep := testMatchReport()
	buf := append([]byte(nil), wire.StreamMagic...)
	var scratch []byte
	for _, se := range edges {
		buf, scratch = wire.AppendEdgeFrame(buf, scratch, se)
	}
	buf, _ = wire.AppendMatchFrame(buf, scratch, rep)

	r := wire.NewReader(iotest.OneByteReader(bytes.NewReader(buf)))
	var gotEdges []graph.StreamEdge
	var gotMatches []export.MatchReport
	for {
		typ, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		switch typ {
		case wire.FrameEdge:
			se, err := wire.DecodeEdge(payload)
			if err != nil {
				t.Fatalf("DecodeEdge: %v", err)
			}
			gotEdges = append(gotEdges, se)
		case wire.FrameMatch:
			m, err := wire.DecodeMatch(payload)
			if err != nil {
				t.Fatalf("DecodeMatch: %v", err)
			}
			gotMatches = append(gotMatches, m)
		}
	}
	if len(gotEdges) != len(edges) || len(gotMatches) != 1 {
		t.Fatalf("decoded %d edges, %d matches; want %d, 1", len(gotEdges), len(gotMatches), len(edges))
	}
	for i := range edges {
		want := edges[i]
		want.ArrivedWallNS = 0
		if !bytes.Equal(wire.AppendEdge(nil, gotEdges[i]), wire.AppendEdge(nil, want)) {
			t.Fatalf("edge %d diverges through Reader", i)
		}
	}
}

func TestReaderErrors(t *testing.T) {
	valid := append([]byte(nil), wire.StreamMagic...)
	valid, _ = wire.AppendEdgeFrame(valid, nil, attrHeavyEdge())

	t.Run("bad-magic", func(t *testing.T) {
		r := wire.NewReader(bytes.NewReader([]byte("NOTMAGIC")))
		if _, _, err := r.Next(); !errors.Is(err, wire.ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		for cut := len(wire.StreamMagic) + 1; cut < len(valid); cut++ {
			r := wire.NewReader(bytes.NewReader(valid[:cut]))
			if _, _, err := r.Next(); !errors.Is(err, wire.ErrTorn) {
				t.Fatalf("cut=%d: want ErrTorn, got %v", cut, err)
			}
		}
	})
	t.Run("crc-flip", func(t *testing.T) {
		for bit := 0; bit < 8; bit++ {
			damaged := append([]byte(nil), valid...)
			damaged[len(damaged)-1] ^= 1 << bit // flip payload tail, CRC must catch it
			r := wire.NewReader(bytes.NewReader(damaged))
			if _, _, err := r.Next(); !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("bit=%d: want ErrCorrupt, got %v", bit, err)
			}
		}
	})
	t.Run("clean-eof", func(t *testing.T) {
		r := wire.NewReader(bytes.NewReader(valid))
		if _, _, err := r.Next(); err != nil {
			t.Fatalf("first frame: %v", err)
		}
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("want io.EOF between frames, got %v", err)
		}
	})
}

func TestDecodeFrameErrors(t *testing.T) {
	frame, _ := wire.AppendEdgeFrame(nil, nil, attrHeavyEdge())

	// Truncation anywhere short of the full frame is torn, never corrupt:
	// it is what a crash mid-write leaves at the end of a log.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, _, err := wire.DecodeFrame(frame[:cut]); !errors.Is(err, wire.ErrTorn) {
			t.Fatalf("cut=%d/%d: want ErrTorn, got %v", cut, len(frame), err)
		}
	}

	// Any single flipped bit in a full frame is rejected — as corruption
	// (CRC mismatch, empty length) or as torn (the length grew past the
	// data); the CRC covers the type byte too.
	for i := range frame {
		damaged := append([]byte(nil), frame...)
		damaged[i] ^= 0x01
		_, _, _, err := wire.DecodeFrame(damaged)
		if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, wire.ErrTorn) {
			t.Fatalf("bit flip at byte %d: want torn/corrupt, got %v", i, err)
		}
	}

	// A zero length declares a frame without even a type byte: corrupt.
	zero := append([]byte(nil), frame...)
	copy(zero, []byte{0, 0, 0, 0})
	if _, _, _, err := wire.DecodeFrame(zero); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("zero length: want ErrCorrupt, got %v", err)
	}

	// The envelope carries any type byte; admitting it is the caller's call.
	typ, payload, n, err := wire.DecodeFrame(wire.AppendFrame(nil, 0x7f, []byte("payload")))
	if err != nil || typ != 0x7f || string(payload) != "payload" || n != 9+len("payload") {
		t.Fatalf("foreign type: got (%d, %q, %d, %v)", typ, payload, n, err)
	}
}

// TestEdgeBatchRoundTrip: the batch payload the write-ahead log stores is
// the edges' own payloads behind a count, and decodes back to the batch.
func TestEdgeBatchRoundTrip(t *testing.T) {
	edges := append(testNetflowWorkload().Edges[:64], attrHeavyEdge())
	payload := wire.AppendEdges(nil, edges)
	got, err := wire.DecodeEdges(payload)
	if err != nil {
		t.Fatalf("DecodeEdges: %v", err)
	}
	if len(got) != len(edges) {
		t.Fatalf("decoded %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if !bytes.Equal(wire.AppendEdge(nil, got[i]), wire.AppendEdge(nil, edges[i])) {
			t.Fatalf("edge %d did not round-trip", i)
		}
	}
	if empty, err := wire.DecodeEdges(wire.AppendEdges(nil, nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
	for cut := 0; cut < len(payload); cut += 7 {
		if _, err := wire.DecodeEdges(payload[:cut]); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("cut=%d: want ErrCorrupt, got %v", cut, err)
		}
	}
	if _, err := wire.DecodeEdges(append(payload, 0)); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("trailing byte: want ErrCorrupt, got %v", err)
	}
}

// TestAppendEdgeAllocs: encoding an edge whose three attribute maps are all
// populated allocates nothing once the destination has grown.
func TestAppendEdgeAllocs(t *testing.T) {
	se := attrHeavyEdge()
	buf := wire.AppendEdge(nil, se)
	allocbudget.Check(t, "wire.AppendEdge", func() { buf = wire.AppendEdge(buf[:0], se) })
}

// TestAppendMatchAllocs: a match encodes into a grown buffer for free.
func TestAppendMatchAllocs(t *testing.T) {
	rep := testMatchReport()
	buf := wire.AppendMatch(nil, rep)
	allocbudget.Check(t, "wire.AppendMatch", func() { buf = wire.AppendMatch(buf[:0], rep) })
}

// repeatFrames serves a stream's magic once and then its frames forever.
type repeatFrames struct {
	data      []byte
	off, loop int
}

func (r *repeatFrames) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	if r.off += n; r.off == len(r.data) {
		r.off = r.loop
	}
	return n, nil
}

// TestFramedCodecAllocs: the envelope costs nothing on either side once the
// buffers have grown. Both headers used to escape to the heap (through
// crc32.Update and io.ReadFull), one allocation per frame written and one
// per frame read.
func TestFramedCodecAllocs(t *testing.T) {
	se, rep := attrHeavyEdge(), testMatchReport()
	frame, scratch := wire.AppendEdgeFrame(nil, nil, se)
	allocbudget.Check(t, "wire.AppendEdgeFrame", func() {
		frame, scratch = wire.AppendEdgeFrame(frame[:0], scratch, se)
	})
	frame, scratch = wire.AppendMatchFrame(frame[:0], scratch, rep)
	allocbudget.Check(t, "wire.AppendMatchFrame", func() {
		frame, scratch = wire.AppendMatchFrame(frame[:0], scratch, rep)
	})

	stream := append(append([]byte(nil), wire.StreamMagic...), frame...)
	r := wire.NewReader(&repeatFrames{data: stream, loop: len(wire.StreamMagic)})
	allocbudget.Check(t, "wire.Reader.Next", func() {
		if typ, _, err := r.Next(); err != nil || typ != wire.FrameMatch {
			t.Fatalf("Next: %d, %v", typ, err)
		}
	})
}

// TestAckRoundTrip: an ack frame decodes to what was encoded, a damaged
// payload is ErrCorrupt, and the success path costs nothing once the
// buffers have grown.
func TestAckRoundTrip(t *testing.T) {
	for _, a := range []wire.Ack{
		{Status: 200, Accepted: 256},
		{Status: 429, Queued: false, Error: "ingest queue full"},
		{Status: 503, Accepted: 70000, Queued: true, Error: "draining"},
	} {
		frame, _ := wire.AppendAckFrame(nil, nil, a)
		typ, payload, n, err := wire.DecodeFrame(frame)
		if err != nil || typ != wire.FrameAck || n != len(frame) {
			t.Fatalf("frame of %+v: type %d, %d of %d bytes, %v", a, typ, n, len(frame), err)
		}
		got, err := wire.DecodeAck(payload)
		if err != nil || got != a {
			t.Fatalf("DecodeAck = %+v, %v; want %+v", got, err, a)
		}
		for _, bad := range [][]byte{payload[:len(payload)-1], append(append([]byte(nil), payload...), 0)} {
			if _, err := wire.DecodeAck(bad); !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("damaged ack %x: want ErrCorrupt, got %v", bad, err)
			}
		}
	}
	if _, err := wire.DecodeAck([]byte{200, 1, 0, 2, 0}); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("queued byte 2: want ErrCorrupt, got %v", err)
	}

	ok := wire.Ack{Status: 200, Accepted: 256}
	frame, scratch := wire.AppendAckFrame(nil, nil, ok)
	allocbudget.Check(t, "wire.AppendAckFrame", func() {
		frame, scratch = wire.AppendAckFrame(frame[:0], scratch, ok)
	})
	_, payload, _, _ := wire.DecodeFrame(frame)
	allocbudget.Check(t, "wire.DecodeAck", func() {
		if got, err := wire.DecodeAck(payload); err != nil || got != ok {
			t.Fatalf("DecodeAck = %+v, %v", got, err)
		}
	})
}
