package wire

import (
	"encoding/binary"

	"github.com/streamworks/streamworks/internal/export"
)

// Match payload layout (frame type FrameMatch):
//
//	string  query
//	varint  detected_at, span_start, span_end
//	string  signature
//	uvarint binding count, then per binding:
//	        string variable, uvarint vertex_id
//	uvarint edge-ID count, then uvarint per edge ID
//
// DeliveredWallNS / ArrivedWallNS are process-local and never serialized,
// matching the JSON transport (`json:"-"`).

// AppendMatch appends the binary payload for rep to dst.
func AppendMatch(dst []byte, rep export.MatchReport) []byte {
	dst = AppendString(dst, rep.Query)
	dst = binary.AppendVarint(dst, rep.DetectedAt)
	dst = binary.AppendVarint(dst, rep.SpanStart)
	dst = binary.AppendVarint(dst, rep.SpanEnd)
	dst = AppendString(dst, rep.Signature)
	dst = binary.AppendUvarint(dst, uint64(len(rep.Bindings)))
	for _, b := range rep.Bindings {
		dst = AppendString(dst, b.Variable)
		dst = binary.AppendUvarint(dst, b.VertexID)
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

// DecodeMatch is the package-level DecodeMatch, taking the report's query
// and variable names from in where it holds them and
// carving its signature, bindings and edge IDs from in's slabs. The
// signature is unique per match and never takes a slot.
func (in *Interner) DecodeMatch(payload []byte) (export.MatchReport, error) {
	var rep export.MatchReport
	sigs, bindings, edgeIDs := in.reportSlabs()
	d := Decoder{buf: payload, in: in}
	rep.Query = d.Str()
	rep.DetectedAt = d.Varint()
	rep.SpanStart = d.Varint()
	rep.SpanEnd = d.Varint()
	rep.Signature = sigs.Copy(d.bytes())
	if nb := d.Count("binding count", minBindingBytes); nb > 0 {
		rep.Bindings = bindings.Make(int(nb))
		for i := range rep.Bindings {
			b := &rep.Bindings[i]
			b.Variable = d.Str()
			b.VertexID = d.Uvarint()
		}
	}
	if ne := d.Count("edge-ID count", 1); ne > 0 {
		rep.EdgeIDs = edgeIDs.Make(int(ne))
		for i := range rep.EdgeIDs {
			rep.EdgeIDs[i] = d.Uvarint()
		}
	}
	if err := d.Finish("match"); err != nil {
		return export.MatchReport{}, err
	}
	return rep, nil
}
