package wire

import (
	"errors"
	"math"
	"reflect"
	"strconv"
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

// slot is the attribute slot of block enc under in's seed.
func slot(in *Interner, enc []byte) uint64 { return in.hash(enc) % internSlots }

// set is the string set of enc under in's seed.
func set(in *Interner, enc []byte) uint64 { return in.hash(enc) % (internSlots / 2) }

// quietInterner returns an interner whose seed puts each of strs in a set of
// its own, and each of blocks in a slot of its own. The cache is
// direct-mapped for blocks, and two-way for strings, under a random seed,
// so without this a warm decode could miss because its encodings happened
// to collide.
func quietInterner(t *testing.T, strs []string, blocks [][]byte) *Interner {
	t.Helper()
	var strEncs [][]byte
	for _, s := range strs {
		strEncs = append(strEncs, []byte(s))
	}
	return internerWhere(t, func(in *Interner) bool { return distinct(in, set, strEncs) && distinct(in, slot, blocks) })
}

// distinct reports whether in puts each of encs in a set or slot, as where
// names it, of its own.
func distinct(in *Interner, where func(*Interner, []byte) uint64, encs [][]byte) bool {
	seen := map[uint64]bool{}
	for _, e := range encs {
		s := where(in, e)
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// sameMap reports whether a and b are one map, not merely equal ones.
func sameMap(a, b graph.Attributes) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// internerWhere returns an interner whose seed satisfies ok.
func internerWhere(t *testing.T, ok func(*Interner) bool) *Interner {
	t.Helper()
	for try := 0; try < 1000; try++ {
		if in := NewInterner(); ok(in) {
			return in
		}
	}
	t.Fatal("no seed in 1000 keeps the encodings apart")
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

// TestInternerNewBlockAllocs: a repeated edge whose target block is new
// each time pays for that block's one-entry map and nothing else: a slot
// keeps the map and the block's hash, no copy of the block's bytes.
func TestInternerNewBlockAllocs(t *testing.T) {
	se := newsEdge()
	payloads := make([][]byte, allocbudget.Runs+1)
	targets := make([][]byte, len(payloads))
	for i := range payloads {
		se.TargetAttrs = graph.Attributes{"rank": graph.Int(int64(i))}
		payloads[i], targets[i] = AppendEdge(nil, se), appendAttrs(nil, se.TargetAttrs)
	}
	// The edge's two repeated blocks keep their slots: no new block lands
	// on one.
	repeated := [][]byte{appendAttrs(nil, se.Edge.Attrs), appendAttrs(nil, se.SourceAttrs)}
	strs := [][]byte{[]byte(se.Edge.Type), []byte(se.SourceType), []byte(se.TargetType), []byte("published"), []byte("rank")}
	in := internerWhere(t, func(in *Interner) bool {
		if !distinct(in, set, strs) || !distinct(in, slot, repeated) {
			return false
		}
		for _, b := range targets {
			if s := slot(in, b); s == slot(in, repeated[0]) || s == slot(in, repeated[1]) {
				return false
			}
		}
		return true
	})
	next := 0
	allocbudget.Check(t, "wire.Interner.DecodeEdge/new attribute block", func() {
		if _, err := in.DecodeEdge(payloads[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

// TestInternerKeepsTwoTypesSharingASlot alternates edges of two types whose
// names share a slot under the interner's own seed: the names share a set of
// two, where each stays, so neither decode allocates. A direct-mapped cache
// would evict one for the other on every edge.
func TestInternerKeepsTwoTypesSharingASlot(t *testing.T) {
	in := NewInterner()
	se := newsEdge()
	se.SourceAttrs, se.TargetAttrs = nil, nil
	taken := map[uint64]bool{set(in, []byte(se.SourceType)): true, set(in, []byte(se.TargetType)): true}
	bySlot := map[uint64]string{}
	var types []string
	for i := 0; types == nil; i++ {
		name := []byte("type-" + strconv.Itoa(i))
		if taken[set(in, name)] {
			continue
		}
		if other, ok := bySlot[slot(in, name)]; ok {
			types = []string{other, string(name)}
		}
		bySlot[slot(in, name)] = string(name)
	}
	var payloads [2][]byte
	for i, typ := range types {
		se.Edge.Type = typ
		payloads[i] = AppendEdge(nil, se)
		if _, err := in.DecodeEdge(payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocbudget.Check(t, "wire.Interner.DecodeEdge/two types sharing a slot", func() {
		got, err := in.DecodeEdge(payloads[next%2])
		if err != nil || got.Edge.Type != types[next%2] {
			t.Fatalf("edge %d decodes as %q (%v), want type %q", next, got.Edge.Type, err, types[next%2])
		}
		next++
	})
}

// foreignSlotCase pairs an attribute block with a map to plant in the slot
// of the block's hash: one that differs from the block's decode in one way
// the content check must see, or, where hit is set, in none.
type foreignSlotCase struct {
	name    string
	block   []byte
	planted graph.Attributes
	hit     bool
}

func foreignSlotCases() []foreignSlotCase {
	negZero := graph.Float(math.Copysign(0, -1))
	nan1, nan2 := graph.Float(math.Float64frombits(0x7ff8000000000001)), graph.Float(math.Float64frombits(0x7ff8000000000002))
	block := func(a graph.Attributes) []byte { return appendAttrs(nil, a) }
	boolByte2 := block(graph.Attributes{"x": graph.Bool(true)})
	boolByte2[len(boolByte2)-1] = 2
	// Two entries under one key: it decodes to {"x": 1}.
	duplicate := []byte{2, 1, 'x', byte(graph.KindInt), 2, 1, 'x', byte(graph.KindInt), 2}
	return []foreignSlotCase{
		{"−0 vs +0", block(graph.Attributes{"x": negZero}), graph.Attributes{"x": graph.Float(0)}, false},
		{"+0 vs −0", block(graph.Attributes{"x": graph.Float(0)}), graph.Attributes{"x": negZero}, false},
		{"NaN payloads", block(graph.Attributes{"x": nan1}), graph.Attributes{"x": nan2}, false},
		{"int vs float", block(graph.Attributes{"x": graph.Int(1)}), graph.Attributes{"x": graph.Float(1)}, false},
		{"float vs int", block(graph.Attributes{"x": graph.Float(1)}), graph.Attributes{"x": graph.Int(1)}, false},
		{"int vs bool", block(graph.Attributes{"x": graph.Int(1)}), graph.Attributes{"x": graph.Bool(true)}, false},
		{"bool vs int", block(graph.Attributes{"x": graph.Bool(true)}), graph.Attributes{"x": graph.Int(1)}, false},
		{"string", block(graph.Attributes{"x": graph.String("a")}), graph.Attributes{"x": graph.String("b")}, false},
		{"key", block(graph.Attributes{"x": graph.Int(1)}), graph.Attributes{"y": graph.Int(1)}, false},
		{"extra key", block(graph.Attributes{"x": graph.Int(1), "y": graph.Int(2)}), graph.Attributes{"x": graph.Int(1)}, false},
		{"missing key", block(graph.Attributes{"x": graph.Int(1)}), graph.Attributes{"x": graph.Int(1), "y": graph.Int(2)}, false},
		{"duplicate key vs its decode", duplicate, graph.Attributes{"x": graph.Int(1)}, false},
		{"duplicate key vs two keys", duplicate, graph.Attributes{"x": graph.Int(1), "y": graph.Int(1)}, false},
		{"same entries", block(graph.Attributes{"x": graph.Int(1), "y": nan1}), graph.Attributes{"x": graph.Int(1), "y": nan1}, true},
		{"bool byte 2 vs true", boolByte2, graph.Attributes{"x": graph.Bool(true)}, true},
	}
}

// ForeignSlotPayloads returns the edge payloads of
// TestInternerRefusesAForeignSlot, for FuzzFrameDecode's seeds.
func ForeignSlotPayloads() [][]byte {
	var payloads [][]byte
	for _, c := range foreignSlotCases() {
		payloads = append(payloads, withTargetBlock(c.block))
	}
	return payloads
}

// withTargetBlock returns an edge payload whose target attribute block is
// block and whose other two blocks are empty.
func withTargetBlock(block []byte) []byte {
	p := AppendEdge(nil, graph.StreamEdge{Edge: graph.Edge{ID: 1, Type: "t"}})
	return append(p[:len(p)-1], block...) // the empty target block is its one count byte
}

// TestInternerRefusesAForeignSlot plants, under a block's hash, a map that
// differs from the block's decode, as a hash collision would: the seeded
// hash keeps a fuzzer from ever reaching one. Each decode must equal the
// uncached one and serve the planted map only when it holds exactly the
// block's entries.
func TestInternerRefusesAForeignSlot(t *testing.T) {
	for _, c := range foreignSlotCases() {
		payload := withTargetBlock(c.block)
		want, err := DecodeEdge(payload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		in := quietInterner(t, nil, [][]byte{{0}, c.block})
		h := in.hash(c.block)
		in.attrs[h%internSlots] = internedAttrs{hash: h, attrs: c.planted}
		got, err := in.DecodeEdge(payload)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded (%v, %v), want (%v, nil)", c.name, got.TargetAttrs, err, want.TargetAttrs)
		}
		if served := sameMap(got.TargetAttrs, c.planted); served != c.hit {
			t.Errorf("%s: served the planted map %v: %v, want %v", c.name, c.planted, served, c.hit)
		}
	}
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
// never takes a slot, so what one interner retains stays within 512 strings
// of at most 64 bytes and 512 maps of blocks that short; one of exactly 64
// bytes does.
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
	for _, pair := range in.strs {
		held[pair[0]], held[pair[1]] = true, true
	}
	if held[long] || !held[edge] {
		t.Fatalf("held %d-byte string %v, %d-byte string %v; want false, true", len(long), held[long], len(edge), held[edge])
	}
	heldMap := func(m graph.Attributes) bool {
		for _, s := range in.attrs {
			if sameMap(s.attrs, m) {
				return true
			}
		}
		return false
	}
	if heldMap(a.TargetAttrs) || heldMap(b.TargetAttrs) || !heldMap(a.SourceAttrs) {
		t.Fatalf("held the long block's map %v, %v, the short one's %v; want false, false, true",
			heldMap(a.TargetAttrs), heldMap(b.TargetAttrs), heldMap(a.SourceAttrs))
	}
	if reflect.ValueOf(a.TargetAttrs).UnsafePointer() == reflect.ValueOf(b.TargetAttrs).UnsafePointer() {
		t.Fatal("a long attribute block was shared between decodes")
	}
}

// TestInternerSkipsEmptyBlocks: the empty attribute block never takes a
// slot, where it would evict a map that costs something to decode.
func TestInternerSkipsEmptyBlocks(t *testing.T) {
	var batch []graph.StreamEdge
	for i := range 4 {
		batch = append(batch, graph.StreamEdge{Edge: graph.Edge{ID: graph.EdgeID(i), Type: "flow"}})
	}
	in := NewInterner()
	if _, err := in.DecodeEdges(AppendEdges(nil, batch)); err != nil {
		t.Fatal(err)
	}
	for i, s := range in.attrs {
		if s.hash != 0 || s.attrs != nil {
			t.Fatalf("slot %d holds %+v after decoding only empty blocks", i, s)
		}
	}
}
