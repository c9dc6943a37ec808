package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

// Record types: the type byte of a segment's frames.
const (
	// RecEdgeBatch carries one ingested edge batch in the binary edge
	// encoding (wire.AppendEdges).
	RecEdgeBatch byte = 1
	// RecRegister carries a query registration: DSL text plus options
	// (RegisterRecord JSON).
	RecRegister byte = 2
	// RecUnregister carries the raw name of an unregistered query.
	RecUnregister byte = 3
	// RecAdvance carries an explicit advance of stream time as a big-endian
	// int64 stream timestamp.
	RecAdvance byte = 4
	// RecEmitted carries an emitted-set checkpoint: a sorted JSON array of
	// (match key, span start) entries (EmittedEntry).
	RecEmitted byte = 5
	// RecManifest is the first frame of every segment and appears nowhere
	// else: the manager's whole state at the moment the segment was started
	// (manifest JSON).
	RecManifest byte = 6
)

// RegisterRecord is the durable form of one query registration: the DSL
// text (query.Format round-trips name, window and pattern) plus the
// query's plan settings, so recovery re-registers it identically. Strategy
// empty means selective. Records written by earlier versions may also carry
// an "adaptive" key, which the reader ignores.
type RegisterRecord struct {
	Name     string `json:"name"`
	DSL      string `json:"dsl"`
	Strategy string `json:"strategy,omitempty"`
}

// EmittedEntry is one checkpointed emission: Key is the canonical
// query+signature match identity (MatchKey) and SpanStart the match's
// stream-time span start, which bounds how long the entry must outlive the
// retained window before it can be evicted.
type EmittedEntry struct {
	Key       string `json:"k"`
	SpanStart int64  `json:"s"`
}

// manifest is everything recovery needs that the records after it do not
// carry: with it, the segments before this one are dispensable as soon as
// their edges have left the window.
type manifest struct {
	// Newest is the newest stream time the log has seen, math.MinInt64
	// before any (older versions wrote 0, read as a time), under the key
	// they wrote.
	Newest int64 `json:"watermark"`
	// Retention is the effective window width in stream nanoseconds — the
	// configured one widened by every query window registered so far; 0
	// retains everything.
	Retention int64 `json:"retention"`
	// Cutoff is the newest expiry bound ever applied: emitted entries below
	// it have been evicted, so edges below it must never be replayed.
	Cutoff int64 `json:"cutoff"`
	// Registrations are the active queries in registration order.
	Registrations []RegisterRecord `json:"registrations"`
	// Emitted is the whole emitted set, sorted by key.
	Emitted []EmittedEntry `json:"emitted"`
}

// MatchKey builds the canonical emitted-set key for a match. The unit
// separator cannot appear in query names or signatures, so the mapping is
// injective — the same key form internal/gen uses for cross-run match-set
// equality.
func MatchKey(query, signature string) string { return query + "\x1f" + signature }

// appendMatchKey appends the bytes of MatchKey(query, signature) to dst.
func appendMatchKey(dst []byte, query, signature string) []byte {
	return append(append(append(dst, query...), '\x1f'), signature...)
}

// Op is one decoded WAL operation, in replay order. Exactly one field
// group is populated, keyed by Type (the Rec* constants).
type Op struct {
	Type     byte
	Edges    []graph.StreamEdge // RecEdgeBatch
	Register *RegisterRecord    // RecRegister
	Name     string             // RecUnregister
	TS       int64              // RecAdvance
	Emitted  []EmittedEntry     // RecEmitted
	manifest *manifest          // RecManifest; folded into the Manager, never handed out
}

func encodeRegister(r RegisterRecord) ([]byte, error) { return json.Marshal(r) }

func encodeAdvance(ts int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(ts))
	return b[:]
}

// encodeEmitted serializes checkpoint entries sorted by key so the frame
// bytes are deterministic regardless of how the emitted set is stored.
func encodeEmitted(entries []EmittedEntry) ([]byte, error) {
	sortEntries(entries)
	return json.Marshal(entries)
}

// sortEntries sorts emitted entries by key.
func sortEntries(entries []EmittedEntry) {
	slices.SortFunc(entries, func(a, b EmittedEntry) int { return strings.Compare(a.Key, b.Key) })
}

// decodeOp decodes one frame's payload into an Op, taking an edge batch's
// strings and attribute maps from in where it holds them (nil caches
// nothing).
func decodeOp(rec byte, payload []byte, in *wire.Interner) (Op, error) {
	op := Op{Type: rec}
	switch rec {
	case RecEdgeBatch:
		edges, err := in.DecodeEdges(payload)
		if err != nil {
			return op, fmt.Errorf("wal: decoding edge batch: %w", err)
		}
		op.Edges = edges
	case RecRegister:
		var r RegisterRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return op, fmt.Errorf("wal: decoding register record: %w", err)
		}
		op.Register = &r
	case RecUnregister:
		op.Name = string(payload)
	case RecAdvance:
		if len(payload) != 8 {
			return op, fmt.Errorf("wal: advance payload is %d bytes, want 8", len(payload))
		}
		op.TS = int64(binary.BigEndian.Uint64(payload))
	case RecEmitted:
		if err := json.Unmarshal(payload, &op.Emitted); err != nil {
			return op, fmt.Errorf("wal: decoding emitted checkpoint: %w", err)
		}
	case RecManifest:
		op.manifest = new(manifest)
		if err := json.Unmarshal(payload, op.manifest); err != nil {
			return op, fmt.Errorf("wal: decoding manifest: %w", err)
		}
	default:
		return op, fmt.Errorf("wal: unknown record type %d", rec)
	}
	return op, nil
}
