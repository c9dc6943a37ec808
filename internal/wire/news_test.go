package wire_test

import (
	"reflect"
	"testing"

	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/wire"
)

// TestInternerMissRateOnNews decodes a seeded news stream, shaped like the
// served news workload (4000 keywords, 300 locations, a one-shot
// publication block per article), frame by frame through one interner, as
// one binary ingest session does, and bounds the attribute maps it builds:
// every map that no earlier edge returned. About 0.23 per edge; a
// direct-mapped table of the same 512 maps builds about 0.36, most of the
// difference hot keyword and location blocks evicted by the one-shot ones.
func TestInternerMissRateOnNews(t *testing.T) {
	cfg := gen.DefaultNewsConfig()
	cfg.Articles = 20000
	cfg.Keywords = 4000
	cfg.Locations = 300
	cfg.Seed = 1
	edges, _ := gen.NewNews(cfg, nil).Generate()

	in := wire.NewInterner()
	decoded := make([]graph.StreamEdge, len(edges)) // keeps every map alive, so none is built at a freed one's address
	built := map[uintptr]bool{}
	var payload []byte
	for i, se := range edges {
		payload = wire.AppendEdge(payload[:0], se)
		got, err := in.DecodeEdge(payload)
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = got
		for _, m := range []graph.Attributes{got.Edge.Attrs, got.SourceAttrs, got.TargetAttrs} {
			if m != nil {
				built[reflect.ValueOf(m).Pointer()] = true
			}
		}
	}
	perEdge := float64(len(built)) / float64(len(edges))
	t.Logf("%d edges, %d attribute maps built: %.3f per edge", len(edges), len(built), perEdge)
	if perEdge > 0.26 {
		t.Errorf("the interner built %.3f attribute maps per edge, want at most 0.26", perEdge)
	}
}
