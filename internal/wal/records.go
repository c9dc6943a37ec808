package wal

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

// Record types: the type byte of a segment's frames. Every payload is
// binary: uvarint counts and lengths, varint times, strings as a uvarint
// length and their bytes.
const (
	// RecEdgeBatch carries one ingested edge batch in the binary edge
	// encoding (wire.AppendEdges).
	RecEdgeBatch byte = 1
	// RecRegister carries a query registration: name, DSL text, strategy.
	RecRegister byte = 2
	// RecUnregister carries the raw name of an unregistered query.
	RecUnregister byte = 3
	// RecAdvance carries an explicit advance of stream time: a varint
	// stream timestamp.
	RecAdvance byte = 4
	// RecCursor carries delivery cursors that moved (Manager.Commit): the
	// log position every registration's cursor moved to (0 for none), then
	// the registrations whose cursors are set one by one, each its name and
	// cursor.
	RecCursor byte = 5
	// RecManifest is the first frame of every segment and appears nowhere
	// else: the manager's whole state at the moment the segment was started.
	RecManifest byte = 6
)

// RegisterRecord is the durable form of one query registration: the DSL
// text (query.Format round-trips name, window and pattern) plus the
// query's plan settings, so recovery re-registers it identically. Strategy
// empty means selective.
type RegisterRecord struct {
	Name     string
	DSL      string
	Strategy string
}

// Cursor is how far a registration's matches have reached a consumer: all
// those completed by the edges at log positions 1 through Seq, and those
// completed by the edge at Seq+1 whose keys (signatures) are in Keys. An
// edge completes its matches when it is applied, whatever the plan, so a
// re-derived match is delivered exactly when its completing edge's position
// and key are covered.
type Cursor struct {
	Seq  uint64
	Keys []string
}

// Covers reports whether the match with key completed by the edge at log
// position seq has reached a consumer.
func (c Cursor) Covers(seq uint64, key string) bool {
	return seq <= c.Seq || seq == c.Seq+1 && slices.Contains(c.Keys, key)
}

// registration is an active query with its delivery cursor. held and dirty
// are the manager's alone: a held cursor ignores Commit's all (its query
// still owes a recovered backlog), and a dirty one moved since the last
// frame or manifest recorded it.
type registration struct {
	RegisterRecord
	cur         Cursor
	held, dirty bool
}

// manifest is everything recovery needs that the records after it do not
// carry: with it, the segments before this one are dispensable as soon as
// their edges have left the window.
type manifest struct {
	// Newest is the newest stream time the log has seen, math.MinInt64
	// before any.
	Newest int64
	// Retention is the effective window width in stream nanoseconds — the
	// configured one widened by every query window registered so far; 0
	// retains everything.
	Retention int64
	// Cutoff is the newest expiry bound ever applied: edges below it are
	// never replayed.
	Cutoff int64
	// Seq is the log position of the last edge logged before the manifest:
	// the edges after it are numbered from Seq+1.
	Seq uint64
	// Registrations are the active queries in registration order, each with
	// its cursor.
	Registrations []registration
}

// Op is one decoded WAL operation, in replay order. Exactly one field
// group is populated, keyed by Type (the Rec* constants).
type Op struct {
	Type     byte
	Edges    []graph.StreamEdge // RecEdgeBatch, its first edge at log position Seq
	Seq      uint64             // RecEdgeBatch
	Register *RegisterRecord    // RecRegister
	Name     string             // RecUnregister
	TS       int64              // RecAdvance
	manifest *manifest          // RecManifest; folded into the Manager, never handed out
	cursors  *cursors           // RecCursor; folded in likewise
}

// cursors is a RecCursor frame: every registration's cursor moved to All
// (0 moves none), then each of Set's, by name, to its own.
type cursors struct {
	All uint64
	Set []registration
}

func appendCursor(dst []byte, c Cursor) []byte {
	dst = binary.AppendUvarint(dst, c.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(c.Keys)))
	for _, k := range c.Keys {
		dst = wire.AppendString(dst, k)
	}
	return dst
}

func appendRegister(dst []byte, r RegisterRecord) []byte {
	return wire.AppendString(wire.AppendString(wire.AppendString(dst, r.Name), r.DSL), r.Strategy)
}

func appendManifest(dst []byte, man *manifest) []byte {
	dst = binary.AppendVarint(dst, man.Newest)
	dst = binary.AppendVarint(dst, man.Retention)
	dst = binary.AppendVarint(dst, man.Cutoff)
	dst = binary.AppendUvarint(dst, man.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(man.Registrations)))
	for _, r := range man.Registrations {
		dst = appendCursor(appendRegister(dst, r.RegisterRecord), r.cur)
	}
	return dst
}

func decodeCursor(d *wire.Decoder) Cursor {
	c := Cursor{Seq: d.Uvarint()}
	if n := d.Count("key count", 1); n > 0 {
		c.Keys = make([]string, n)
		for i := range c.Keys {
			c.Keys[i] = d.Str()
		}
	}
	return c
}

func decodeRegister(d *wire.Decoder) RegisterRecord {
	return RegisterRecord{Name: d.Str(), DSL: d.Str(), Strategy: d.Str()}
}

// decodeOp decodes one frame's payload into an Op, taking an edge batch's
// strings and attribute maps from in where it holds them (nil caches
// nothing).
func decodeOp(rec byte, payload []byte, in *wire.Interner) (Op, error) {
	op := Op{Type: rec}
	d := wire.NewDecoder(payload)
	switch rec {
	case RecEdgeBatch:
		edges, err := in.DecodeEdges(payload)
		if err != nil {
			return op, fmt.Errorf("wal: decoding edge batch: %w", err)
		}
		op.Edges = edges
		return op, nil
	case RecRegister:
		reg := decodeRegister(d)
		op.Register = &reg
	case RecUnregister:
		op.Name = string(payload)
		return op, nil
	case RecAdvance:
		op.TS = d.Varint()
	case RecCursor:
		op.cursors = &cursors{All: d.Uvarint()}
		if n := d.Count("cursor count", 3); n > 0 { // name, seq and key count: a byte each at least
			op.cursors.Set = make([]registration, n)
			for i := range op.cursors.Set {
				op.cursors.Set[i] = registration{RegisterRecord: RegisterRecord{Name: d.Str()}, cur: decodeCursor(d)}
			}
		}
	case RecManifest:
		man := &manifest{Newest: d.Varint(), Retention: d.Varint(), Cutoff: d.Varint(), Seq: d.Uvarint()}
		if n := d.Count("registration count", 5); n > 0 { // three strings, seq and key count
			man.Registrations = make([]registration, n)
			for i := range man.Registrations {
				man.Registrations[i] = registration{RegisterRecord: decodeRegister(d), cur: decodeCursor(d)}
			}
		}
		op.manifest = man
	default:
		return op, fmt.Errorf("wal: unknown record type %d", rec)
	}
	if err := d.Finish("record"); err != nil {
		return op, fmt.Errorf("wal: decoding record type %d: %w", rec, err)
	}
	return op, nil
}
