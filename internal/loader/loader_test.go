package loader

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
)

func sampleEdges() []graph.StreamEdge {
	return []graph.StreamEdge{
		{
			Edge: graph.Edge{
				ID: 1, Source: 10, Target: 20, Type: "flow", Timestamp: 1000,
				Attrs: graph.Attributes{"bytes": graph.Int(512), "proto": graph.String("tcp")},
			},
			SourceType:  "Host",
			TargetType:  "Server",
			SourceAttrs: graph.Attributes{"os": graph.String("linux")},
		},
		{
			Edge: graph.Edge{
				ID: 2, Source: 20, Target: 30, Type: "dns_query", Timestamp: 2000,
				Attrs: graph.Attributes{"qname": graph.String("a.example.com"), "score": graph.Float(0.5), "cached": graph.Bool(true)},
			},
			SourceType: "Server",
			TargetType: "Server",
		},
		{
			Edge:       graph.Edge{ID: 3, Source: 30, Target: 10, Type: "login", Timestamp: 3000},
			SourceType: "Server",
			TargetType: "Host",
		},
	}
}

func TestJSONLRoundTripPreservesKinds(t *testing.T) {
	edges := sampleEdges()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, edges); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(edges) {
		t.Fatalf("round trip lost edges")
	}
	// Kind preservation: float stays float, bool stays bool.
	score, _ := got[1].Edge.Attrs.Get("score")
	if score.Kind() != graph.KindFloat || score.Float64() != 0.5 {
		t.Fatalf("float attr mangled: %v", score)
	}
	cached, _ := got[1].Edge.Attrs.Get("cached")
	if cached.Kind() != graph.KindBool || !cached.BoolVal() {
		t.Fatalf("bool attr mangled: %v", cached)
	}
	os, _ := got[0].SourceAttrs.Get("os")
	if os.Str() != "linux" {
		t.Fatalf("source attrs mangled")
	}
}

// DecodeJSONL skips blank lines, stops right after the edge for which fn
// returns false, and names the 1-based line of a bad one, having passed
// every edge before it to fn.
func TestDecodeJSONLSkipsBlankLinesStopsAndReportsErrors(t *testing.T) {
	doc := `{"id":1,"source":1,"target":2,"type":"flow","ts":5}

{"id":2,"source":2,"target":3,"type":"dns_query","ts":6}
{"id":3,"source":3,"target":1,"type":"flow","ts":7}
`
	got, err := ReadJSONL(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("blank line handling wrong: %d edges", len(got))
	}

	var seen []graph.EdgeID
	err = DecodeJSONL(strings.NewReader(doc+"{broken json\n"), func(se graph.StreamEdge) bool {
		seen = append(seen, se.Edge.ID)
		return se.Edge.ID != 2
	})
	if err != nil || !slices.Equal(seen, []graph.EdgeID{1, 2}) {
		t.Fatalf("stopping at edge 2: saw %v, err %v; want [1 2] and no error", seen, err)
	}

	seen = seen[:0]
	err = DecodeJSONL(strings.NewReader(doc+"{broken json\n"), func(se graph.StreamEdge) bool {
		seen = append(seen, se.Edge.ID)
		return true
	})
	if err == nil || !strings.Contains(err.Error(), "line 5:") {
		t.Fatalf("broken JSON on line 5: err %v", err)
	}
	if !slices.Equal(seen, []graph.EdgeID{1, 2, 3}) {
		t.Fatalf("edges before the bad line: saw %v, want [1 2 3]", seen)
	}
}

// An attribute value of a kind the binary encoding cannot carry is refused
// with its line and key, in every attribute map: accepted, it would be
// dropped by the write-ahead log.
func TestDecodeJSONLRejectsUnknownAttrKind(t *testing.T) {
	for kind, value := range map[string]string{"integer": `{"kind":"integer","i":7}`, "none": `{"i":7}`} {
		for _, field := range []string{"attrs", "source_attrs", "target_attrs"} {
			t.Run(field+"/"+kind, func(t *testing.T) {
				doc := `{"id":1,"source":1,"target":2,"type":"flow","ts":5}` + "\n" +
					`{"id":2,"source":1,"target":2,"type":"flow","ts":6,"` + field + `":{"x":` + value + `}}` + "\n"
				got, err := ReadJSONL(strings.NewReader(doc))
				if err == nil {
					t.Fatalf("accepted: %v", got[1])
				}
				for _, want := range []string{"line 2:", field + ` key "x"`} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not name %s", err, want)
					}
				}
			})
		}
	}
}

// NDJSON from a client may end its lines with CRLF and its last line with
// no newline at all; both decode.
func TestDecodeJSONLAcceptsCRLFAndUnterminatedLastLine(t *testing.T) {
	doc := `{"id":1,"source":1,"target":2,"type":"flow","ts":5}` + "\r\n\r\n" +
		`{"id":2,"source":2,"target":3,"type":"flow","ts":6}`
	got, err := ReadJSONL(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Edge.ID != 1 || got[1].Edge.ID != 2 {
		t.Fatalf("decoded %v, want edges 1 and 2", got)
	}
}
