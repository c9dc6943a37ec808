package loader

import (
	"bytes"
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

func TestJSONLSourceSkipsBlankLinesAndReportsErrors(t *testing.T) {
	doc := `{"id":1,"source":1,"target":2,"type":"flow","ts":5}

{"id":2,"source":2,"target":3,"type":"dns_query","ts":6}
`
	got, err := ReadJSONL(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("blank line handling wrong: %d edges", len(got))
	}
	if _, err := ReadJSONL(strings.NewReader("{broken json\n")); err == nil {
		t.Fatalf("broken JSON accepted")
	}
}
