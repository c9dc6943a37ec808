package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/streamworks/streamworks/internal/export"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// newsEdge is shaped like the news stream's mentions edges: three type
// names, no edge attributes and both endpoint maps populated.
func newsEdge() graph.StreamEdge {
	return graph.StreamEdge{
		Edge: graph.Edge{
			ID: 7, Source: 100, Target: 3,
			Type:      "mentions",
			Timestamp: 1371859200000000000,
		},
		SourceType:  "article",
		TargetType:  "keyword",
		SourceAttrs: graph.Attributes{"published": graph.Int(1371859200000000000)},
		TargetAttrs: graph.Attributes{"label": graph.String("topic-3")},
	}
}

// servedReport is shaped like the reports the daemon delivers: every
// binding named.
func servedReport() export.MatchReport {
	return export.MatchReport{
		Query:      "news-event",
		DetectedAt: 1371859200000000000,
		SpanStart:  1371859100000000000,
		SpanEnd:    1371859200000000000,
		Signature:  "0:11|1:12|2:13",
		Bindings: []export.Binding{
			{Variable: "a", VertexID: 100},
			{Variable: "k", VertexID: 3},
			{Variable: "l", VertexID: 9},
		},
		EdgeIDs: []uint64{11, 12, 13},
	}
}

// quietInterner returns an interner whose seed puts each of strs, and each
// of blocks, in a slot of its own. The cache is direct-mapped under a
// random seed, so without this a warm decode would miss whenever two of its
// encodings happened to collide.
func quietInterner(t *testing.T, strs []string, blocks [][]byte) *Interner {
	t.Helper()
	distinct := func(in *Interner, encs [][]byte) bool {
		seen := map[uint64]bool{}
		for _, e := range encs {
			s := in.slot(e)
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	var strEncs [][]byte
	for _, s := range strs {
		strEncs = append(strEncs, []byte(s))
	}
	for try := 0; try < 100; try++ {
		if in := NewInterner(); distinct(in, strEncs) && distinct(in, blocks) {
			return in
		}
	}
	t.Fatal("no seed in 100 keeps the encodings apart")
	return nil
}

func TestInternerWarmDecodeAllocs(t *testing.T) {
	se := newsEdge()
	edge := AppendEdge(nil, se)
	in := quietInterner(t, []string{se.Edge.Type, se.SourceType, se.TargetType},
		[][]byte{appendAttrs(nil, se.Edge.Attrs), appendAttrs(nil, se.SourceAttrs), appendAttrs(nil, se.TargetAttrs)})
	allocbudget.Check(t, "wire.Interner.DecodeEdge/warm", func() {
		if _, err := in.DecodeEdge(edge); err != nil {
			t.Fatal(err)
		}
	})

	rep := servedReport()
	report := AppendMatch(nil, rep)
	names := []string{rep.Query}
	for _, b := range rep.Bindings {
		names = append(names, b.Variable)
	}
	in = quietInterner(t, names, nil)
	allocbudget.Check(t, "wire.Interner.DecodeMatch/warm", func() {
		if _, err := in.DecodeMatch(report); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInternerDecodeMatchEqualsUncached: reports decoded through one
// interner — enough of them to fill many slab chunks, with payloads of
// every size reusing one buffer — equal what the uncached decoder returns,
// and stay so after later decodes.
func TestInternerDecodeMatchEqualsUncached(t *testing.T) {
	in := NewInterner()
	var kept, want []export.MatchReport
	var payload []byte
	for i := 0; i < 3000; i++ {
		rep := servedReport()
		rep.Signature = strings.Repeat("0:11,", i%40)
		rep.Bindings = rep.Bindings[:i%4]
		rep.EdgeIDs = make([]uint64, i%7)
		for j := range rep.EdgeIDs {
			rep.EdgeIDs[j] = uint64(i*7 + j)
		}
		payload = AppendMatch(payload[:0], rep)
		got, err := in.DecodeMatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		uncached, err := DecodeMatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		kept, want = append(kept, got), append(want, uncached)
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatal("reports decoded through the interner differ from the uncached decodes")
	}
}

// TestInternerIgnoresFailedBlocks decodes A, then A′ (A with its last
// attribute block damaged after one good entry), then A again: A′ fails,
// leaves the interner exactly as A left it, and the second A decodes to the
// first, sharing its cached maps.
func TestInternerIgnoresFailedBlocks(t *testing.T) {
	se := newsEdge()
	se.TargetAttrs = graph.Attributes{"label": graph.String("topic-3"), "rank": graph.Int(2)}
	a := AppendEdge(nil, se)
	damaged := append([]byte(nil), a...)
	damaged[len(damaged)-2] = 0x7f // the kind byte of "rank", before its one-byte varint
	in := quietInterner(t, []string{"mentions", "article", "keyword", "published", "label", "topic-3", "rank"},
		[][]byte{appendAttrs(nil, nil), appendAttrs(nil, se.SourceAttrs), appendAttrs(nil, se.TargetAttrs)})

	first, err := in.DecodeEdge(a)
	if err != nil {
		t.Fatal(err)
	}
	before := *in
	if _, err := in.DecodeEdge(damaged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged block: want ErrCorrupt, got %v", err)
	}
	if !reflect.DeepEqual(*in, before) {
		t.Fatal("a failed decode changed the interner")
	}
	third, err := in.DecodeEdge(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, first) {
		t.Fatalf("third decode diverges:\n got %+v\nwant %+v", third, first)
	}
	if reflect.ValueOf(third.TargetAttrs).UnsafePointer() != reflect.ValueOf(first.TargetAttrs).UnsafePointer() {
		t.Fatal("the valid block was not served from the cache")
	}
}

// TestInternerSkipsLongEncodings: a string or attribute block over 64 bytes
// never takes a slot, so one interner's keys stay within 512 × 64 bytes of
// each kind; one of exactly 64 bytes does.
func TestInternerSkipsLongEncodings(t *testing.T) {
	long, edge := strings.Repeat("x", internMaxLen+1), strings.Repeat("y", internMaxLen)
	se := graph.StreamEdge{
		Edge:        graph.Edge{ID: 1, Type: edge},
		SourceType:  long,
		SourceAttrs: graph.Attributes{"note": graph.String("short")},
		TargetAttrs: graph.Attributes{"note": graph.String(long)},
	}
	payload := AppendEdge(nil, se)
	in := quietInterner(t, []string{edge, "note", "short"}, nil)
	a, errA := in.DecodeEdge(payload)
	b, errB := in.DecodeEdge(payload)
	if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
		t.Fatalf("decodes differ: %v, %v", errA, errB)
	}
	held := map[string]bool{}
	for _, s := range in.strs {
		held[s] = true
	}
	if held[long] || !held[edge] {
		t.Fatalf("held %d-byte string %v, %d-byte string %v; want false, true", len(long), held[long], len(edge), held[edge])
	}
	for _, s := range in.attrs {
		if len(s.enc) > internMaxLen {
			t.Fatalf("cached a %d-byte attribute block", len(s.enc))
		}
	}
	if reflect.ValueOf(a.TargetAttrs).UnsafePointer() == reflect.ValueOf(b.TargetAttrs).UnsafePointer() {
		t.Fatal("a long attribute block was shared between decodes")
	}
}
