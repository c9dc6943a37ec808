// Package wire is the framed envelope and the edge, match and ack encodings
// every byte stream in the system is made of: binary ingest, binary match
// delivery and the write-ahead log's segments (internal/wal). A stream is an
// 8-byte magic followed by frames of
//
//	uint32 length   — big-endian, covers the type byte + payload
//	uint32 crc32    — IEEE, over the type byte + payload
//	byte   type     — the stream's own: Frame* here, wal.Rec* in a segment
//	bytes  payload
//
// A frame is valid iff the declared length fits in the remaining bytes and
// the CRC matches; which types a stream admits is its reader's business.
// The network frames are FrameEdge (an ingest body), FrameMatch (a match
// subscription), and on an ingest session FrameSync, sent by the client
// after a batch, and FrameAck, the server's answer to each sync and to the
// end of the body, in a response stream of its own.
// Payload encodings (edge.go, match.go) are byte-deterministic — attribute
// maps are emitted in sorted key order — so encode is a pure function of
// the value and match sets can be compared byte-for-byte across transports.
// Decoding bounds every count by what the rest of its payload can hold at
// the element's smallest encoding, so no count sizes an allocation beyond
// its bytes; a decoded match report's own values are carved from its
// Interner's slab chunks (internal/slab).
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// StreamMagic identifies a StreamWorks binary wire stream, version 1. Both
// the persistent ingest stream and the binary match stream start with it.
var StreamMagic = []byte("SWIRE001")

// ContentTypeBinary is the negotiated media type for the binary frame
// transport, used as Content-Type on ingest and Accept on match delivery.
const ContentTypeBinary = "application/x-streamworks-frame"

// Frame types of the network transports.
const (
	// FrameEdge carries one graph.StreamEdge (edge.go).
	FrameEdge byte = 1
	// FrameMatch carries one export.MatchReport (match.go). Type 2 carried
	// an older match layout with a vertex type and attributes per binding;
	// it is retired, so a peer still speaking it is refused as corrupt.
	FrameMatch byte = 3
	// FrameSync, client to server on an ingest session, asks for an answer
	// for every edge sent since the previous sync. Its payload is empty.
	FrameSync byte = 4
	// FrameAck, server to client on an ingest session, carries an Ack
	// (ack.go): the answer to a sync, or to the end of the session's body.
	FrameAck byte = 5
)

// FrameHeaderLen is what the envelope adds to a payload: 4 length + 4 crc
// + 1 type byte.
const FrameHeaderLen = 9

const (
	// maxStreamPayload bounds what a Reader allocates for one frame of
	// network input. Edges and match reports are small; 16 MiB is generous
	// headroom. DecodeFrame needs no such bound: it allocates nothing, and
	// a declared length beyond the data is a torn frame.
	maxStreamPayload = 16 << 20
)

var (
	// ErrTorn means the data ends before the frame it declares — a
	// truncated stream, a partial read, or the tail a crash left in a log.
	ErrTorn = errors.New("wire: torn frame")
	// ErrCorrupt means the frame is structurally invalid: CRC mismatch,
	// empty or oversized length, or malformed payload.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrBadMagic means the stream does not start with StreamMagic.
	ErrBadMagic = errors.New("wire: bad stream magic")
)

// AppendFrame appends the framed envelope for (typ, payload) to dst. The
// header is written in place and its CRC patched in afterwards: a header
// array of its own would escape to the heap through the checksum call.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)+1))
	dst = append(dst, 0, 0, 0, 0, typ) // CRC placeholder, then the type byte
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+8:]))
	return dst
}

// DecodeFrame decodes the first frame in data, returning the frame type,
// its payload (aliasing data) and the total encoded size. It distinguishes
// a torn tail (ErrTorn: data simply ends early) from corruption
// (ErrCorrupt: CRC mismatch or an empty frame). The type is returned as
// found; the caller decides which types its stream admits.
func DecodeFrame(data []byte) (typ byte, payload []byte, n int, err error) {
	if len(data) < FrameHeaderLen {
		return 0, nil, 0, ErrTorn
	}
	length := binary.BigEndian.Uint32(data[0:4])
	if length == 0 {
		return 0, nil, 0, ErrCorrupt
	}
	if uint64(len(data)) < 8+uint64(length) {
		return 0, nil, 0, ErrTorn
	}
	total := 8 + int(length)
	body := data[8:total]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[4:8]) {
		return 0, nil, 0, ErrCorrupt
	}
	return body[0], body[1:], total, nil
}

// Reader decodes a frame stream incrementally from r: the 8-byte magic,
// then one frame per Next call. The returned payload is valid only until
// the next call — callers that retain data must copy.
type Reader struct {
	br    *bufio.Reader
	buf   []byte
	hdr   [8]byte // the magic, then each frame's length + CRC: a local would escape through io.ReadFull
	magic bool
}

// NewReader wraps r in a streaming frame decoder with a 64 KiB read buffer.
func NewReader(r io.Reader) *Reader { return NewReaderSize(r, 64<<10) }

// NewReaderSize wraps r in a streaming frame decoder that buffers size
// bytes: a stream of small frames that arrive one at a time, such as an
// ingest session's acks, needs no more than a frame's worth.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// Buffered reports how many decoded-but-unread bytes sit in the reader's
// buffer — a Next call that needs more than this will block on the
// underlying reader. Streaming consumers use it to dispatch partial work
// before blocking.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// Next reads the next frame. It returns io.EOF on a clean end-of-stream
// (between frames), ErrTorn when the stream ends mid-frame, and ErrCorrupt
// on structural damage. The magic header is consumed on the first call.
func (r *Reader) Next() (typ byte, payload []byte, err error) {
	if !r.magic {
		if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return 0, nil, ErrBadMagic
			}
			return 0, nil, err
		}
		if !bytes.Equal(r.hdr[:], StreamMagic) {
			return 0, nil, ErrBadMagic
		}
		r.magic = true
	}
	hdr := r.hdr[:] // length + crc; type is part of body
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTorn
		}
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length == 0 || length > maxStreamPayload {
		return 0, nil, ErrCorrupt
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	body := r.buf[:length]
	if _, err := io.ReadFull(r.br, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTorn
		}
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(hdr[4:8]) {
		return 0, nil, ErrCorrupt
	}
	return body[0], body[1:], nil
}
