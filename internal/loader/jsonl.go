// Package loader reads and writes edge streams as JSON Lines, so generated
// datasets (or ones exported from other systems) can be replayed through the
// engine and the benchmark harness.
package loader

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/streamworks/streamworks/internal/graph"
)

// jsonEdge is the JSON Lines wire representation of one stream edge.
// Attribute values carry an explicit kind so round-trips preserve types
// exactly.
type jsonEdge struct {
	ID          uint64               `json:"id"`
	Source      uint64               `json:"source"`
	Target      uint64               `json:"target"`
	Type        string               `json:"type"`
	Timestamp   int64                `json:"ts"`
	SourceType  string               `json:"source_type,omitempty"`
	TargetType  string               `json:"target_type,omitempty"`
	Attrs       map[string]jsonValue `json:"attrs,omitempty"`
	SourceAttrs map[string]jsonValue `json:"source_attrs,omitempty"`
	TargetAttrs map[string]jsonValue `json:"target_attrs,omitempty"`
}

type jsonValue struct {
	Kind  string  `json:"kind"`
	Str   string  `json:"s,omitempty"`
	Int   int64   `json:"i,omitempty"`
	Float float64 `json:"f,omitempty"`
	Bool  bool    `json:"b,omitempty"`
}

func toJSONValue(v graph.Value) jsonValue {
	switch v.Kind() {
	case graph.KindString:
		return jsonValue{Kind: "string", Str: v.Str()}
	case graph.KindInt:
		return jsonValue{Kind: "int", Int: v.Int64()}
	case graph.KindFloat:
		return jsonValue{Kind: "float", Float: v.Float64()}
	case graph.KindBool:
		return jsonValue{Kind: "bool", Bool: v.BoolVal()}
	default:
		return jsonValue{Kind: "invalid"}
	}
}

// fromJSONValue decodes v, refusing a kind that is none of the four: the
// binary encoding has no representation for it, so an edge carrying one
// would lose the attribute in the write-ahead log.
func fromJSONValue(v jsonValue) (graph.Value, error) {
	switch v.Kind {
	case "string":
		return graph.String(v.Str), nil
	case "int":
		return graph.Int(v.Int), nil
	case "float":
		return graph.Float(v.Float), nil
	case "bool":
		return graph.Bool(v.Bool), nil
	default:
		return graph.Value{}, fmt.Errorf("unknown kind %q", v.Kind)
	}
}

func toJSONAttrs(a graph.Attributes) map[string]jsonValue {
	if len(a) == 0 {
		return nil
	}
	out := make(map[string]jsonValue, len(a))
	for k, v := range a {
		out[k] = toJSONValue(v)
	}
	return out
}

// fromJSONAttrs decodes the attribute map of the given field.
func fromJSONAttrs(field string, m map[string]jsonValue) (graph.Attributes, error) {
	if len(m) == 0 {
		return nil, nil
	}
	var attrs graph.Attributes
	// Map order is harmless: Set inserts by key, so any visit order builds
	// the same attributes, and which bad key of several is named does not
	// matter.
	for k, jv := range m {
		v, err := fromJSONValue(jv)
		if err != nil {
			return nil, fmt.Errorf("%s key %q: %w", field, k, err)
		}
		attrs = attrs.Set(k, v)
	}
	return attrs, nil
}

func toJSONEdge(se graph.StreamEdge) jsonEdge {
	return jsonEdge{
		ID:          uint64(se.Edge.ID),
		Source:      uint64(se.Edge.Source),
		Target:      uint64(se.Edge.Target),
		Type:        se.Edge.Type,
		Timestamp:   int64(se.Edge.Timestamp),
		SourceType:  se.SourceType,
		TargetType:  se.TargetType,
		Attrs:       toJSONAttrs(se.Edge.Attrs),
		SourceAttrs: toJSONAttrs(se.SourceAttrs),
		TargetAttrs: toJSONAttrs(se.TargetAttrs),
	}
}

func fromJSONEdge(je jsonEdge) (graph.StreamEdge, error) {
	attrs, err := fromJSONAttrs("attrs", je.Attrs)
	if err != nil {
		return graph.StreamEdge{}, err
	}
	srcAttrs, err := fromJSONAttrs("source_attrs", je.SourceAttrs)
	if err != nil {
		return graph.StreamEdge{}, err
	}
	dstAttrs, err := fromJSONAttrs("target_attrs", je.TargetAttrs)
	if err != nil {
		return graph.StreamEdge{}, err
	}
	return graph.StreamEdge{
		Edge: graph.Edge{
			ID:        graph.EdgeID(je.ID),
			Source:    graph.VertexID(je.Source),
			Target:    graph.VertexID(je.Target),
			Type:      je.Type,
			Timestamp: graph.Timestamp(je.Timestamp),
			Attrs:     attrs,
		},
		SourceType:  je.SourceType,
		TargetType:  je.TargetType,
		SourceAttrs: srcAttrs,
		TargetAttrs: dstAttrs,
	}, nil
}

// WriteJSONL writes one JSON object per line for every edge. Encoding goes
// through the hand-rolled appenders in jsonl_append.go (byte-identical to
// encoding/json for this shape); edges the fast path cannot represent
// exactly fall back to encoding/json.
func WriteJSONL(w io.Writer, edges []graph.StreamEdge) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	var keys []string
	var enc *json.Encoder
	for _, se := range edges {
		out, k, ok := appendEdgeWire(buf[:0], keys, se)
		keys = k
		if ok {
			buf = append(out, '\n')
			if _, err := bw.Write(buf); err != nil {
				return fmt.Errorf("loader: encoding edge %d: %w", se.Edge.ID, err)
			}
			continue
		}
		if enc == nil {
			enc = json.NewEncoder(bw)
		}
		if err := enc.Encode(toJSONEdge(se)); err != nil {
			return fmt.Errorf("loader: encoding edge %d: %w", se.Edge.ID, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads every edge from a JSON Lines document.
func ReadJSONL(r io.Reader) ([]graph.StreamEdge, error) {
	var out []graph.StreamEdge
	err := DecodeJSONL(r, func(se graph.StreamEdge) bool {
		out = append(out, se)
		return true
	})
	return out, err
}

// DecodeJSONL decodes a JSON Lines document one line at a time, calling fn
// with each edge in order, and stops as soon as fn returns false. Blank
// lines are skipped. A line that is not an edge, or that holds an attribute
// value of unknown kind, ends the decode with an error naming its 1-based
// line number; fn has seen every edge before it.
func DecodeJSONL(r io.Reader, fn func(graph.StreamEdge) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for line := 1; sc.Scan(); line++ {
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var je jsonEdge
		if err := json.Unmarshal(text, &je); err != nil {
			return fmt.Errorf("loader: line %d: %w", line, err)
		}
		se, err := fromJSONEdge(je)
		if err != nil {
			return fmt.Errorf("loader: line %d: %w", line, err)
		}
		if !fn(se) {
			return nil
		}
	}
	return sc.Err()
}
