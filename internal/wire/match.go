package wire

import (
	"encoding/binary"
	"slices"

	"github.com/streamworks/streamworks/internal/export"
)

// Match payload layout:
//
//	string  query
//	varint  detected_at, span_start, span_end
//	string  signature
//	uvarint binding count, then per binding:
//	        string variable, uvarint vertex_id, string vertex_type,
//	        uvarint attr count, per attr (sorted): string key, string value
//	uvarint edge-ID count, then uvarint per edge ID
//
// DeliveredWallNS / ArrivedWallNS are process-local and never serialized,
// matching the JSON transport (`json:"-"`).

// AppendMatch appends the binary payload for rep to dst. The encoding is
// byte-deterministic: binding attrs are emitted in sorted key order.
func AppendMatch(dst []byte, rep export.MatchReport) []byte {
	dst = appendString(dst, rep.Query)
	dst = binary.AppendVarint(dst, rep.DetectedAt)
	dst = binary.AppendVarint(dst, rep.SpanStart)
	dst = binary.AppendVarint(dst, rep.SpanEnd)
	dst = appendString(dst, rep.Signature)
	dst = binary.AppendUvarint(dst, uint64(len(rep.Bindings)))
	for _, b := range rep.Bindings {
		dst = appendString(dst, b.Variable)
		dst = binary.AppendUvarint(dst, b.VertexID)
		dst = appendString(dst, b.VertexType)
		dst = binary.AppendUvarint(dst, uint64(len(b.Attrs)))
		// Sorted in a stack-backed array, as appendAttrs does.
		var stack [16]string
		keys := stack[:0]
		for k := range b.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			dst = appendString(dst, k)
			dst = appendString(dst, b.Attrs[k])
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rep.EdgeIDs)))
	for _, id := range rep.EdgeIDs {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
}

// AppendMatchFrame appends the complete framed envelope for rep to dst,
// encoding the payload into scratch (reused across calls) and returning
// both grown slices.
func AppendMatchFrame(dst, scratch []byte, rep export.MatchReport) ([]byte, []byte) {
	scratch = AppendMatch(scratch[:0], rep)
	return AppendFrame(dst, FrameMatch, scratch), scratch
}

// DecodeMatch decodes a match payload produced by AppendMatch.
func DecodeMatch(payload []byte) (export.MatchReport, error) {
	return (*Interner)(nil).DecodeMatch(payload)
}

// DecodeMatch is the package-level DecodeMatch, taking the report's names,
// types and binding attribute strings from in where it holds them and
// carving its signature, bindings and edge IDs from in's slabs. The
// signature is unique per match and never takes a slot.
func (in *Interner) DecodeMatch(payload []byte) (export.MatchReport, error) {
	var rep export.MatchReport
	sigs, bindings, edgeIDs := in.reportSlabs()
	d := decoder{buf: payload, in: in}
	rep.Query = d.string()
	rep.DetectedAt = d.varint()
	rep.SpanStart = d.varint()
	rep.SpanEnd = d.varint()
	rep.Signature = sigs.Copy(d.bytes())
	if nb := d.count("binding count", minBindingBytes); nb > 0 {
		rep.Bindings = bindings.Make(int(nb))
		for i := range rep.Bindings {
			b := &rep.Bindings[i]
			b.Variable = d.string()
			b.VertexID = d.uvarint()
			b.VertexType = d.string()
			if na := d.count("binding attr count", minBindingAttrBytes); na > 0 {
				b.Attrs = make(map[string]string, na)
				for j := uint64(0); j < na && d.err == nil; j++ {
					k := d.string()
					b.Attrs[k] = d.string()
				}
			}
		}
	}
	if ne := d.count("edge-ID count", 1); ne > 0 {
		rep.EdgeIDs = edgeIDs.Make(int(ne))
		for i := range rep.EdgeIDs {
			rep.EdgeIDs[i] = d.uvarint()
		}
	}
	if err := d.finish("match"); err != nil {
		return export.MatchReport{}, err
	}
	return rep, nil
}
