package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

// FuzzFrameDecode mirrors FuzzWALDecode: whatever the bytes, the decoder
// must classify every failure as torn or corrupt (never panic, never
// mis-advance), any payload that does decode must survive a re-encode
// round trip (decode∘encode∘decode = decode), and an interner carried
// across the frames must decode every payload to exactly what the
// stateless decoders do, failing with the same error.
func FuzzFrameDecode(f *testing.F) {
	// Seed with real streams from the gen workloads: magic + edge frames
	// from netflow and news, plus a match frame.
	var scratch []byte
	seed := append([]byte(nil), wire.StreamMagic...)
	for _, se := range testNetflowWorkload().Edges[:32] {
		seed, scratch = wire.AppendEdgeFrame(seed, scratch, se)
	}
	for _, se := range testNewsWorkload().Edges[:32] {
		seed, scratch = wire.AppendEdgeFrame(seed, scratch, se)
	}
	seed, _ = wire.AppendMatchFrame(seed, scratch, testMatchReport())
	f.Add(seed)
	// Torn: truncate mid-frame.
	f.Add(seed[:len(seed)-5])
	// CRC-flipped: damage one byte in the middle.
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	// Magic alone, empty input, and a single handcrafted attr-heavy edge.
	f.Add(append([]byte(nil), wire.StreamMagic...))
	f.Add([]byte{})
	one, _ := wire.AppendEdgeFrame(nil, nil, attrHeavyEdge())
	f.Add(one)
	// A news edge, the same edge with its last attribute block damaged under
	// a valid CRC, and the edge again: what the interner saw of the damaged
	// payload must not leak into the third decode.
	se := testNewsWorkload().Edges[0]
	se.TargetAttrs = graph.Attributes{"label": graph.String("topic-3"), "rank": graph.Int(2)}
	news := wire.AppendEdge(nil, se)
	damaged := append([]byte(nil), news...)
	damaged[len(damaged)-2] = 0x7f // the kind byte of "rank", before its one-byte varint
	seq := wire.AppendFrame(append([]byte(nil), wire.StreamMagic...), wire.FrameEdge, news)
	seq = wire.AppendFrame(seq, wire.FrameEdge, damaged)
	f.Add(wire.AppendFrame(seq, wire.FrameEdge, news))
	// A match payload in the retired layout — a vertex type and an
	// attribute count after each binding — framed as a current match.
	retired := wire.AppendMatch(nil, export.MatchReport{Query: "q", Signature: "0:1"})
	retired = append(retired[:len(retired)-2], 1, 1, 'a', 7, 0, 0, 1, 1)
	f.Add(wire.AppendFrame(append([]byte(nil), wire.StreamMagic...), wire.FrameMatch, retired))

	f.Fuzz(func(t *testing.T, data []byte) {
		// One interner rides along the whole input, as one does along a
		// connection; it must never change what a payload decodes to.
		in := wire.NewInterner()
		off := 0
		if len(data) >= len(wire.StreamMagic) && bytes.Equal(data[:len(wire.StreamMagic)], wire.StreamMagic) {
			off = len(wire.StreamMagic)
		}
		for off < len(data) {
			typ, payload, n, err := wire.DecodeFrame(data[off:])
			if err != nil {
				if !errors.Is(err, wire.ErrTorn) && !errors.Is(err, wire.ErrCorrupt) {
					t.Fatalf("DecodeFrame: unexpected error class %v", err)
				}
				return
			}
			if n <= 8 {
				t.Fatalf("DecodeFrame returned non-advancing size %d", n)
			}
			switch typ {
			case wire.FrameEdge:
				se, err := wire.DecodeEdge(payload)
				got, gotErr := in.DecodeEdge(payload)
				if fmt.Sprint(gotErr) != fmt.Sprint(err) || !sameDecode(got, se) {
					t.Fatalf("interned edge decode diverges: (%#v, %v), want (%#v, %v)", got, gotErr, se, err)
				}
				if err != nil {
					if !errors.Is(err, wire.ErrCorrupt) {
						t.Fatalf("DecodeEdge: unexpected error class %v", err)
					}
					break
				}
				// Varint encodings in fuzzed input may be non-minimal, so
				// bytes can differ — but the decoded value must be stable
				// through our own canonical encoding.
				re := wire.AppendEdge(nil, se)
				se2, err := wire.DecodeEdge(re)
				if err != nil {
					t.Fatalf("re-decode of canonical encode failed: %v", err)
				}
				if !bytes.Equal(re, wire.AppendEdge(nil, se2)) {
					t.Fatalf("canonical edge encoding not a fixed point")
				}
			case wire.FrameMatch:
				rep, err := wire.DecodeMatch(payload)
				got, gotErr := in.DecodeMatch(payload)
				if fmt.Sprint(gotErr) != fmt.Sprint(err) || !reflect.DeepEqual(got, rep) {
					t.Fatalf("interned match decode diverges: (%+v, %v), want (%+v, %v)", got, gotErr, rep, err)
				}
				if err != nil {
					if !errors.Is(err, wire.ErrCorrupt) {
						t.Fatalf("DecodeMatch: unexpected error class %v", err)
					}
					break
				}
				re := wire.AppendMatch(nil, rep)
				rep2, err := wire.DecodeMatch(re)
				if err != nil {
					t.Fatalf("re-decode of canonical encode failed: %v", err)
				}
				if !bytes.Equal(re, wire.AppendMatch(nil, rep2)) {
					t.Fatalf("canonical match encoding not a fixed point")
				}
			}
			off += n
		}
	})
}

// sameDecode is reflect.DeepEqual, except that a NaN attribute value equals
// the NaN it was decoded beside (DeepEqual compares floats with ==).
func sameDecode(a, b graph.StreamEdge) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}
