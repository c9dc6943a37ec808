package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/streamworks/streamworks/internal/graph"
)

// Edge payload layout (all integers varint/uvarint, strings uvarint-length
// prefixed, attribute maps in sorted key order):
//
//	uvarint id, uvarint source, uvarint target
//	string  type
//	varint  timestamp (stream ns)
//	string  source_type, string target_type
//	attrs   attrs, source_attrs, target_attrs
//
// attrs = uvarint count, then per key (sorted): string key, byte kind,
// kind-specific value (string | varint | 8-byte BE float bits | bool byte).
// ArrivedWallNS is process-local observability state and never serialized.

// AppendEdge appends the binary payload for se to dst. Invalid attribute
// values (graph.KindInvalid) are skipped; everything else round-trips
// exactly and the encoding is byte-deterministic.
func AppendEdge(dst []byte, se graph.StreamEdge) []byte {
	dst = binary.AppendUvarint(dst, uint64(se.Edge.ID))
	dst = binary.AppendUvarint(dst, uint64(se.Edge.Source))
	dst = binary.AppendUvarint(dst, uint64(se.Edge.Target))
	dst = appendString(dst, se.Edge.Type)
	dst = binary.AppendVarint(dst, int64(se.Edge.Timestamp))
	dst = appendString(dst, se.SourceType)
	dst = appendString(dst, se.TargetType)
	dst = appendAttrs(dst, se.Edge.Attrs)
	dst = appendAttrs(dst, se.SourceAttrs)
	dst = appendAttrs(dst, se.TargetAttrs)
	return dst
}

// AppendEdgeFrame appends the complete framed envelope for se to dst,
// encoding the payload into scratch (reused across calls to avoid per-edge
// allocation) and returning both grown slices.
func AppendEdgeFrame(dst, scratch []byte, se graph.StreamEdge) ([]byte, []byte) {
	scratch = AppendEdge(scratch[:0], se)
	return AppendFrame(dst, FrameEdge, scratch), scratch
}

// AppendEdges appends a batch payload to dst: a uvarint count, then the
// edges' payloads back to back (the edge layout is self-delimiting). It is
// how the write-ahead log stores an ingested batch.
func AppendEdges(dst []byte, edges []graph.StreamEdge) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	for i := range edges {
		dst = AppendEdge(dst, edges[i])
	}
	return dst
}

// DecodeEdge decodes an edge payload produced by AppendEdge.
func DecodeEdge(payload []byte) (graph.StreamEdge, error) {
	return (*Interner)(nil).DecodeEdge(payload)
}

// DecodeEdge is the package-level DecodeEdge, taking the edge's strings and
// attribute maps from in where it holds them. A nil in caches nothing.
func (in *Interner) DecodeEdge(payload []byte) (graph.StreamEdge, error) {
	d := decoder{buf: payload, in: in}
	se := d.edge()
	if err := d.finish("edge"); err != nil {
		return graph.StreamEdge{}, err
	}
	return se, nil
}

// DecodeEdges decodes a batch payload produced by AppendEdges.
func DecodeEdges(payload []byte) ([]graph.StreamEdge, error) {
	return (*Interner)(nil).DecodeEdges(payload)
}

// DecodeEdges is the package-level DecodeEdges, taking the edges' strings
// and attribute maps from in where it holds them. A nil in caches nothing.
func (in *Interner) DecodeEdges(payload []byte) ([]graph.StreamEdge, error) {
	d := decoder{buf: payload, in: in}
	n := d.count("edge count", minEdgeBytes)
	if d.err != nil {
		return nil, d.err
	}
	edges := make([]graph.StreamEdge, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		edges = append(edges, d.edge())
	}
	if err := d.finish("edge batch"); err != nil {
		return nil, err
	}
	return edges, nil
}

func (d *decoder) edge() graph.StreamEdge {
	var se graph.StreamEdge
	se.Edge.ID = graph.EdgeID(d.uvarint())
	se.Edge.Source = graph.VertexID(d.uvarint())
	se.Edge.Target = graph.VertexID(d.uvarint())
	se.Edge.Type = d.string()
	se.Edge.Timestamp = graph.Timestamp(d.varint())
	se.SourceType = d.string()
	se.TargetType = d.string()
	se.Edge.Attrs = d.attrs()
	se.SourceAttrs = d.attrs()
	se.TargetAttrs = d.attrs()
	return se
}

// finish reports the latched error, or the bytes left over after what.
func (d *decoder) finish(what string) error {
	if d.err == nil && len(d.buf) != 0 {
		d.fail("%d trailing bytes after %s", len(d.buf), what)
	}
	return d.err
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendAttrs(dst []byte, a graph.Attributes) []byte {
	n := 0
	for _, v := range a {
		if v.IsValid() {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == 0 {
		return dst
	}
	// Sorted in a stack-backed array: an edge carries a handful of
	// attributes, and a heap slice per map was the encoder's only allocation.
	var stack [16]string
	keys := stack[:0]
	for k, v := range a {
		if v.IsValid() {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		v := a[k]
		dst = append(dst, byte(v.Kind()))
		switch v.Kind() {
		case graph.KindString:
			dst = appendString(dst, v.Str())
		case graph.KindInt:
			dst = binary.AppendVarint(dst, v.Int64())
		case graph.KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float64()))
		case graph.KindBool:
			b := byte(0)
			if v.BoolVal() {
				b = 1
			}
			dst = append(dst, b)
		}
	}
	return dst
}

// decoder is a cursor over a frame payload. The first malformed field
// latches err (always wrapping ErrCorrupt) and every later read is a no-op,
// so codecs read straight through and check once. Strings and attribute
// maps come from in when it holds them (nil caches nothing).
type decoder struct {
	buf []byte
	err error
	in  *Interner
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// The smallest encodings of what a count counts: each string is at least its
// one-byte length, each integer and attribute kind one byte, each attribute
// block its one-byte count.
const (
	minEdgeBytes    = 10 // id, source, target, type, timestamp, two type names, three blocks
	minAttrBytes    = 3  // key, kind, value
	minBindingBytes = 2  // variable, vertex ID
)

// count reads an element count and refuses one whose elements, at least
// size bytes each, the rest of the payload cannot hold: no count read off
// the wire sizes an allocation beyond what its bytes can hold. A refused
// count, or one read after an error, is 0.
func (d *decoder) count(what string, size int) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)/size) {
		d.fail("%s %d exceeds what %d remaining bytes hold at %d bytes each", what, n, len(d.buf), size)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// bytes reads a length-prefixed string's bytes, aliasing the payload.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("string length %d exceeds %d remaining", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) string() string { return d.in.string(d.bytes()) }

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("unexpected end of payload")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// attrs reads an attribute block. With an interner, a validating skip pass
// measures the block first, and a short one is looked up by its hash; a
// cached map is returned only if the block holds exactly its entries. A
// miss is decoded and recorded only once it has decoded cleanly. The empty
// block, its one count byte, costs nothing to decode and is never cached,
// so it cannot evict a map.
func (d *decoder) attrs() graph.Attributes {
	if d.in == nil || d.err != nil {
		return d.attrBlock(true)
	}
	skip := decoder{buf: d.buf}
	skip.attrBlock(false)
	enc := d.buf[:len(d.buf)-len(skip.buf)]
	if skip.err != nil || len(enc) == 1 || len(enc) > internMaxLen {
		return d.attrBlock(true)
	}
	h := d.in.hash(enc)
	if a := d.in.cachedAttrs(enc, h); a != nil {
		d.buf = skip.buf
		return a
	}
	a := d.attrBlock(true)
	if d.err == nil {
		d.in.missedAttrs(h, a)
	}
	return a
}

// holds reports whether enc, an attribute block the skip pass has
// validated, decodes to exactly a. Its keys must be strictly increasing, as
// AppendEdge writes them, so they are distinct; there must be len(a) of
// them, each in a with the same kind and value: strings byte for byte, ints
// equal, floats by their IEEE bits (−0 is not +0, and NaN payloads differ),
// bools by the value they decode to.
func holds(enc []byte, a graph.Attributes) bool {
	d := decoder{buf: enc}
	if d.uvarint() != uint64(len(a)) {
		return false
	}
	var prev []byte
	for i := range len(a) {
		k := d.bytes()
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			return false
		}
		prev = k
		v, ok := a[string(k)]
		if kind := graph.Kind(d.byte()); !ok || v.Kind() != kind {
			return false
		}
		switch v.Kind() {
		case graph.KindString:
			ok = v.Str() == string(d.bytes())
		case graph.KindInt:
			ok = v.Int64() == d.varint()
		case graph.KindFloat:
			ok = math.Float64bits(v.Float64()) == binary.BigEndian.Uint64(d.buf)
			d.buf = d.buf[8:]
		case graph.KindBool:
			ok = v.BoolVal() == (d.byte() != 0)
		}
		if !ok {
			return false
		}
	}
	return true
}

// attrBlock reads an attribute block, building the map only when build is
// set: without it the block is validated and skipped.
func (d *decoder) attrBlock(build bool) graph.Attributes {
	n := d.count("attr count", minAttrBytes)
	if n == 0 {
		return nil
	}
	var a graph.Attributes
	if build {
		a = make(graph.Attributes, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.bytes()
		var v graph.Value
		switch kind := graph.Kind(d.byte()); kind {
		case graph.KindString:
			if s := d.bytes(); build {
				v = graph.String(d.in.string(s))
			}
		case graph.KindInt:
			v = graph.Int(d.varint())
		case graph.KindFloat:
			if len(d.buf) < 8 {
				d.fail("truncated float value")
				return nil
			}
			v = graph.Float(math.Float64frombits(binary.BigEndian.Uint64(d.buf)))
			d.buf = d.buf[8:]
		case graph.KindBool:
			v = graph.Bool(d.byte() != 0)
		default:
			d.fail("unknown attr kind %d", kind)
			return nil
		}
		if build {
			a[d.in.string(k)] = v
		}
	}
	if d.err != nil {
		return nil
	}
	return a
}
