package wire

import "encoding/binary"

// Ack payload layout (frame type FrameAck):
//
//	uvarint status    — an HTTP status code
//	uvarint accepted
//	byte    queued    — 0 or 1
//	string  error     — empty on success

// Ack is the answer an ingest session gives to a sync, and to the end of
// its body: the fields of the JSON answer to POST /v1/edges plus the status
// code that answer would carry.
type Ack struct {
	Status   int
	Accepted int
	Queued   bool
	Error    string
}

// AppendAckFrame appends the complete framed envelope for a to dst,
// encoding the payload into scratch (reused across calls) and returning both
// grown slices.
func AppendAckFrame(dst, scratch []byte, a Ack) ([]byte, []byte) {
	scratch = binary.AppendUvarint(scratch[:0], uint64(a.Status))
	scratch = binary.AppendUvarint(scratch, uint64(a.Accepted))
	queued := byte(0)
	if a.Queued {
		queued = 1
	}
	scratch = appendString(append(scratch, queued), a.Error)
	return AppendFrame(dst, FrameAck, scratch), scratch
}

// DecodeAck decodes an ack payload produced by AppendAckFrame.
func DecodeAck(payload []byte) (Ack, error) {
	d := decoder{buf: payload}
	a := Ack{Status: int(d.uvarint()), Accepted: int(d.uvarint())}
	switch q := d.byte(); {
	case q == 1:
		a.Queued = true
	case q > 1:
		d.fail("queued byte %d", q)
	}
	a.Error = d.string()
	if err := d.finish("ack"); err != nil {
		return Ack{}, err
	}
	return a, nil
}
