package loader

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"

	"github.com/streamworks/streamworks/internal/graph"
)

// This file is the hand-rolled fast path behind WriteJSONL. JSONL is the
// text ingest format — every NDJSON ingest body a client posts and every
// workload dump is written through it (the WAL and its checkpoints are
// binary wire frames and never come here) — and reflection-based
// encoding/json was measured at ~2.7µs/edge. The appenders below encode
// straight from graph.StreamEdge (no intermediate jsonEdge maps) and
// produce byte-identical output to encoding/json for the jsonEdge shape:
// same field order, omitempty behavior, sorted map keys, HTML escaping and
// float format. That keeps the wire format and the golden files unchanged;
// a differential test pins the equivalence. Anything the fast path cannot
// reproduce exactly (NaN/Inf floats) falls back to encoding/json for that
// edge.

// appendJSONString appends s as a JSON string. The fast path covers plain
// ASCII without characters encoding/json escapes (quotes, backslash,
// controls, and <, >, & under its default HTML escaping); everything else
// defers to json.Marshal for guaranteed byte equivalence.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat mirrors encoding/json's float encoding: shortest
// round-trip form, 'f' format except very small/large magnitudes, with the
// exponent's leading zero trimmed. ok=false for NaN/Inf, which
// encoding/json rejects.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendValueWire appends one attribute value in the jsonValue wire shape:
// a kind tag plus the matching omitempty payload field.
func appendValueWire(b []byte, v graph.Value) ([]byte, bool) {
	switch v.Kind() {
	case graph.KindString:
		b = append(b, `{"kind":"string"`...)
		if s := v.Str(); s != "" {
			b = append(b, `,"s":`...)
			b = appendJSONString(b, s)
		}
	case graph.KindInt:
		b = append(b, `{"kind":"int"`...)
		if n := v.Int64(); n != 0 {
			b = append(b, `,"i":`...)
			b = strconv.AppendInt(b, n, 10)
		}
	case graph.KindFloat:
		b = append(b, `{"kind":"float"`...)
		if f := v.Float64(); f != 0 {
			b = append(b, `,"f":`...)
			var ok bool
			if b, ok = appendJSONFloat(b, f); !ok {
				return b, false
			}
		}
	case graph.KindBool:
		b = append(b, `{"kind":"bool"`...)
		if v.BoolVal() {
			b = append(b, `,"b":true`...)
		}
	default:
		b = append(b, `{"kind":"invalid"`...)
	}
	return append(b, '}'), true
}

// appendAttrsWire appends an attribute map with keys in sorted order
// (encoding/json's map behavior). keys is a reusable scratch slice.
func appendAttrsWire(b []byte, keys []string, a graph.Attributes) ([]byte, []string, bool) {
	keys = keys[:0]
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
		b = append(b, ':')
		var ok bool
		if b, ok = appendValueWire(b, a[k]); !ok {
			return b, keys, false
		}
	}
	return append(b, '}'), keys, true
}

// appendEdgeWire appends se as one JSON object (no trailing newline),
// byte-identical to encoding/json encoding the equivalent jsonEdge.
// ok=false means the edge needs the encoding/json fallback; the caller must
// discard the partial output.
func appendEdgeWire(b []byte, keys []string, se graph.StreamEdge) ([]byte, []string, bool) {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, uint64(se.Edge.ID), 10)
	b = append(b, `,"source":`...)
	b = strconv.AppendUint(b, uint64(se.Edge.Source), 10)
	b = append(b, `,"target":`...)
	b = strconv.AppendUint(b, uint64(se.Edge.Target), 10)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, se.Edge.Type)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, int64(se.Edge.Timestamp), 10)
	if se.SourceType != "" {
		b = append(b, `,"source_type":`...)
		b = appendJSONString(b, se.SourceType)
	}
	if se.TargetType != "" {
		b = append(b, `,"target_type":`...)
		b = appendJSONString(b, se.TargetType)
	}
	var ok bool
	if len(se.Edge.Attrs) > 0 {
		b = append(b, `,"attrs":`...)
		if b, keys, ok = appendAttrsWire(b, keys, se.Edge.Attrs); !ok {
			return b, keys, false
		}
	}
	if len(se.SourceAttrs) > 0 {
		b = append(b, `,"source_attrs":`...)
		if b, keys, ok = appendAttrsWire(b, keys, se.SourceAttrs); !ok {
			return b, keys, false
		}
	}
	if len(se.TargetAttrs) > 0 {
		b = append(b, `,"target_attrs":`...)
		if b, keys, ok = appendAttrsWire(b, keys, se.TargetAttrs); !ok {
			return b, keys, false
		}
	}
	return append(b, '}'), keys, true
}
