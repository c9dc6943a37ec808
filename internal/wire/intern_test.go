package wire

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// set is the string set of enc under in's seed.
func set(in *Interner, enc []byte) uint64 { return in.hash(enc) % (internSlots / 2) }

// quietInterner returns an interner whose seed puts each of strs in a set of
// its own. The string cache is two-way under a random seed, so without this
// a warm decode could miss because three of its names happened to collide.
func quietInterner(t *testing.T, strs []string) *Interner {
	t.Helper()
	var encs [][]byte
	for _, s := range strs {
		encs = append(encs, []byte(s))
	}
	return internerWhere(t, func(in *Interner) bool { return distinct(in, encs) })
}

// distinct reports whether in puts each of encs in a string set of its own.
func distinct(in *Interner, encs [][]byte) bool {
	seen := map[uint64]bool{}
	for _, e := range encs {
		s := set(in, e)
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// cachedIn names the places that hold a map under the hash h: "recent" for
// the recent front, "set" for a way of h's set, "missed" when the table of
// first misses remembers h.
func cachedIn(in *Interner, h uint64) []string {
	var places []string
	for _, e := range in.recent {
		if e.hash == h {
			places = append(places, "recent")
			break
		}
	}
	for _, e := range in.attrs[h%attrSets] {
		if e.hash == h {
			places = append(places, "set")
			break
		}
	}
	if slices.Contains(in.missed[h%(internSlots/2)][:], h) {
		places = append(places, "missed")
	}
	return places
}

// heldMap reports whether in holds m anywhere, in its recent front or a
// set.
func heldMap(in *Interner, m graph.Attributes) bool {
	for _, e := range in.recent {
		if sameMap(e.attrs, m) {
			return true
		}
	}
	for _, set := range in.attrs {
		for _, e := range set {
			if sameMap(e.attrs, m) {
				return true
			}
		}
	}
	return false
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
	in := quietInterner(t, []string{se.Edge.Type, se.SourceType, se.TargetType})
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
	in = quietInterner(t, names)
	allocbudget.Check(t, "wire.Interner.DecodeMatch/warm", func() {
		if _, err := in.DecodeMatch(report); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInternerNewBlockAllocs: a repeated edge whose target block is new
// each time pays for that block's one-entry map and nothing else: an entry
// keeps the map and the block's hash, no copy of the block's bytes, and
// the repeated source block, evicted from the recent front by the new ones,
// enters its set on its second miss and stays there.
func TestInternerNewBlockAllocs(t *testing.T) {
	se := newsEdge()
	payloads := make([][]byte, allocbudget.Runs+1)
	for i := range payloads {
		se.TargetAttrs = graph.Attributes{"rank": graph.Int(int64(i))}
		payloads[i] = AppendEdge(nil, se)
	}
	in := quietInterner(t, []string{se.Edge.Type, se.SourceType, se.TargetType, "published", "rank"})
	next := 0
	allocbudget.Check(t, "wire.Interner.DecodeEdge/new attribute block", func() {
		if _, err := in.DecodeEdge(payloads[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

// TestInternerNewBlockBytes pins what a new attribute block costs in heap
// bytes: its map alone, a 48 B header and one group of 8 slots (8 control
// bytes and 40 B per key and 24-B Value, in the 352 B size class), 400 B in
// all, whether the block holds one entry (a news keyword's) or three (a
// netflow flow's). With 32-B Values the group was 416 B.
func TestInternerNewBlockBytes(t *testing.T) {
	const warm, decodes = 10, 1000
	news := newsEdge()
	flow := graph.StreamEdge{
		Edge:       graph.Edge{ID: 9, Source: 1, Target: 2, Type: "flow", Timestamp: 1371859200000000000},
		SourceType: "host", TargetType: "server",
	}
	for _, c := range []struct {
		name  string
		strs  []string
		block func(i int) graph.StreamEdge
	}{
		{"one-entry news block", []string{news.Edge.Type, news.SourceType, news.TargetType, "published", "rank"},
			func(i int) graph.StreamEdge {
				se := news
				se.TargetAttrs = graph.Attributes{"rank": graph.Int(int64(i))}
				return se
			}},
		{"three-entry netflow flow block", []string{flow.Edge.Type, flow.SourceType, flow.TargetType, "bytes", "port", "proto", "tcp"},
			func(i int) graph.StreamEdge {
				se := flow
				se.Edge.Attrs = graph.Attributes{"bytes": graph.Int(int64(64 + i)), "port": graph.Int(443), "proto": graph.String("tcp")}
				return se
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			payloads := make([][]byte, warm+decodes)
			for i := range payloads {
				payloads[i] = AppendEdge(nil, c.block(i))
			}
			in := quietInterner(t, c.strs)
			for _, p := range payloads[:warm] {
				if _, err := in.DecodeEdge(p); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, p := range payloads[warm:] {
				if _, err := in.DecodeEdge(p); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perBlock := (after.TotalAlloc - before.TotalAlloc) / decodes
			t.Logf("%d B and %.2f allocations per new block", perBlock, float64(after.Mallocs-before.Mallocs)/decodes)
			if perBlock > 400 {
				t.Errorf("a new block costs %d B, want at most 400 (a 48 B map header and a 352 B group)", perBlock)
			}
		})
	}
}

// TestInternerKeepsTwoTypesSharingASlot alternates edges of two types whose
// names hash to one set of two under the interner's own seed, where each
// stays, so neither decode allocates. A direct-mapped cache would evict one
// for the other on every edge.
func TestInternerKeepsTwoTypesSharingASlot(t *testing.T) {
	in := NewInterner()
	se := newsEdge()
	se.SourceAttrs, se.TargetAttrs = nil, nil
	taken := map[uint64]bool{set(in, []byte(se.SourceType)): true, set(in, []byte(se.TargetType)): true}
	bySet := map[uint64]string{}
	var types []string
	for i := 0; types == nil; i++ {
		name := []byte("type-" + strconv.Itoa(i))
		if taken[set(in, name)] {
			continue
		}
		if other, ok := bySet[set(in, name)]; ok {
			types = []string{other, string(name)}
		}
		bySet[set(in, name)] = string(name)
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

// TestInternerKeepsHotBlocksThroughOneShotBlocks decodes a news-shaped
// stream through one interner: 300 hot keyword blocks, warmed, then
// articles whose one-shot publication block repeats on 6 consecutive edges,
// each naming a random hot keyword. Through the whole scan every hot block
// is served the map it was warmed with, and an article's repeats share the
// map its first edge built, so the scan builds one map per article and
// nothing else. A direct-mapped cache would let each article's block evict
// a hot one.
func TestInternerKeepsHotBlocksThroughOneShotBlocks(t *testing.T) {
	const hot, articles, repeats = 300, 2000, 6
	se := newsEdge()
	hotBlocks := make([][]byte, hot)
	hotEdges := make([][]byte, hot) // a hot block and an empty source block
	for i := range hotBlocks {
		se.SourceAttrs, se.TargetAttrs = nil, graph.Attributes{"label": graph.String("topic-" + strconv.Itoa(i))}
		hotBlocks[i], hotEdges[i] = appendAttrs(nil, se.TargetAttrs), AppendEdge(nil, se)
	}
	// No set is asked to hold more hot blocks than its ways, which would
	// evict one another under any policy.
	in := internerWhere(t, func(in *Interner) bool {
		perSet := map[uint64]int{}
		for _, b := range hotBlocks {
			if perSet[in.hash(b)%attrSets]++; perSet[in.hash(b)%attrSets] > attrWays {
				return false
			}
		}
		return distinct(in, [][]byte{[]byte(se.Edge.Type), []byte(se.SourceType), []byte(se.TargetType)})
	})
	decode := func(payload []byte) graph.StreamEdge {
		t.Helper()
		got, err := in.DecodeEdge(payload)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Warm up in shuffled passes until every hot block is in its set. A
	// block enters its set on its second miss, so each pass ends with as
	// many one-shot blocks as the recent front holds, which push out a hot
	// block the front would otherwise keep serving. Two hot blocks that
	// share an entry of the table of first misses take turns there until
	// one misses twice in a row.
	rng := rand.New(rand.NewSource(1))
	hotMaps := make([]graph.Attributes, hot)
	for pass := 0; ; pass++ {
		for _, i := range rng.Perm(hot) {
			hotMaps[i] = decode(hotEdges[i]).TargetAttrs
		}
		for i := range attrRecent {
			decode(withTargetBlock(appendAttrs(nil, graph.Attributes{"filler": graph.Int(int64(pass*attrRecent + i))})))
		}
		out := 0
		for _, b := range hotBlocks {
			if !slices.Contains(cachedIn(in, in.hash(b)), "set") {
				out++
			}
		}
		if out == 0 {
			break
		}
		if pass == 50 {
			t.Fatalf("%d hot blocks still outside their sets after %d warm-up passes", out, pass)
		}
	}

	for a := range articles {
		var published graph.Attributes
		for r := range repeats {
			k := rng.Intn(hot)
			se.SourceAttrs = graph.Attributes{"published": graph.Int(int64(a))}
			se.TargetAttrs = graph.Attributes{"label": graph.String("topic-" + strconv.Itoa(k))}
			got := decode(AppendEdge(nil, se))
			if r == 0 {
				published = got.SourceAttrs
			} else if !sameMap(got.SourceAttrs, published) {
				t.Fatalf("article %d, edge %d: its publication block was decoded again", a, r)
			}
			if !sameMap(got.TargetAttrs, hotMaps[k]) {
				t.Fatalf("article %d, edge %d: hot block %d was evicted by the scan", a, r, k)
			}
		}
	}

	next := 0
	allocbudget.Check(t, "wire.Interner.DecodeEdge/hot block after a scan", func() {
		k := next % hot
		if got := decode(hotEdges[k]).TargetAttrs; !sameMap(got, hotMaps[k]) {
			t.Fatalf("hot block %d was decoded again", k)
		}
		next++
	})

	// One more article's block, on edge after edge: the first decode is
	// AllocsPerRun's warm-up call, and every later one is served from the
	// recent front, while the block never enters its set.
	se.SourceAttrs = graph.Attributes{"published": graph.Int(articles)}
	oneShot := make([][]byte, hot)
	for k := range oneShot {
		se.TargetAttrs = graph.Attributes{"label": graph.String("topic-" + strconv.Itoa(k))}
		oneShot[k] = AppendEdge(nil, se)
	}
	var published graph.Attributes
	next = 0
	allocbudget.Check(t, "wire.Interner.DecodeEdge/one-shot block repeated", func() {
		got := decode(oneShot[next%hot])
		if published == nil {
			published = got.SourceAttrs
		} else if !sameMap(got.SourceAttrs, published) {
			t.Fatalf("edge %d: the one-shot block was decoded again", next)
		}
		next++
	})
	if got := cachedIn(in, in.hash(appendAttrs(nil, se.SourceAttrs))); !reflect.DeepEqual(got, []string{"recent", "missed"}) {
		t.Fatalf("a block that missed once is in %v, want only the recent front and the table of first misses", got)
	}
}

// TestInternerSetEvictsTheLeastRecentlyUsed fills one set with eight
// blocks, the last of them the least recently used, then hits that one and
// admits a ninth block to the set: the ninth takes the way of the block
// that is now least recently used, and the hit one stays.
func TestInternerSetEvictsTheLeastRecentlyUsed(t *testing.T) {
	in := quietInterner(t, []string{"t", "k"})
	var blocks [][]byte // attrWays+1 blocks that hash to one set
	bySet := map[uint64][][]byte{}
	for i := 0; blocks == nil; i++ {
		b := appendAttrs(nil, graph.Attributes{"k": graph.Int(int64(i))})
		set := in.hash(b) % attrSets
		if bySet[set] = append(bySet[set], b); len(bySet[set]) == attrWays+1 {
			blocks = bySet[set]
		}
	}
	maps := make([]graph.Attributes, len(blocks))
	for i, b := range blocks {
		got, err := DecodeEdge(withTargetBlock(b))
		if err != nil {
			t.Fatal(err)
		}
		maps[i] = got.TargetAttrs
	}
	set := &in.attrs[in.hash(blocks[0])%attrSets]
	for i := range attrWays {
		set[i] = internedAttrs{hash: in.hash(blocks[i]), attrs: maps[i]}
	}
	decode := func(b []byte) graph.Attributes {
		t.Helper()
		got, err := in.DecodeEdge(withTargetBlock(b))
		if err != nil {
			t.Fatal(err)
		}
		return got.TargetAttrs
	}

	last, newest := attrWays-1, attrWays
	if !sameMap(decode(blocks[last]), maps[last]) {
		t.Fatal("a block in its set was not served from there")
	}
	h := in.hash(blocks[newest])
	in.missed[h%(internSlots/2)][0] = h // it missed once before: this miss admits it
	decode(blocks[newest])
	for i, b := range blocks {
		inSet := slices.Contains(cachedIn(in, in.hash(b)), "set")
		if want := i != last-1; inSet != want {
			t.Errorf("block %d in the set: %v, want %v", i, inSet, want)
		}
	}
	if !sameMap(decode(blocks[last]), maps[last]) {
		t.Fatal("the block hit just before the admission was evicted")
	}
}

// TestInternerAdmitsBlocksThatMissInTurn: two blocks whose hashes share an
// entry of a direct-mapped table of first misses, decoded in alternation
// with enough one-shot blocks between them to push each out of the recent
// front, both enter their sets on their second miss: neither overwrites the
// other's record of its first.
func TestInternerAdmitsBlocksThatMissInTurn(t *testing.T) {
	in := quietInterner(t, []string{"t", "k", "filler"})
	block := func(key string, i int) []byte { return appendAttrs(nil, graph.Attributes{key: graph.Int(int64(i))}) }
	var a, b []byte
	byEntry := map[uint64][]byte{}
	for i := 0; b == nil; i++ {
		blk := block("k", i)
		entry := in.hash(blk) % internSlots
		if first, ok := byEntry[entry]; ok {
			a, b = first, blk
		}
		byEntry[entry] = blk
	}
	nextFiller := 0
	fill := func() {
		t.Helper()
		for n := 0; n < attrRecent; nextFiller++ {
			f := block("filler", nextFiller)
			if in.hash(f)%(internSlots/2) == in.hash(a)%(internSlots/2) {
				continue // keep the fillers out of the pair's table entries
			}
			if _, err := in.DecodeEdge(withTargetBlock(f)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	inSet := func(blk []byte) bool { return slices.Contains(cachedIn(in, in.hash(blk)), "set") }
	for miss := 1; miss <= 2; miss++ {
		for _, blk := range [][]byte{a, b} {
			if _, err := in.DecodeEdge(withTargetBlock(blk)); err != nil {
				t.Fatal(err)
			}
			if got, want := inSet(blk), miss == 2; got != want {
				t.Fatalf("block %x after miss %d: in its set %v, want %v", blk, miss, got, want)
			}
			fill()
		}
	}
}

// foreignSlotCase pairs an attribute block with a map to plant under the
// block's hash: one that differs from the block's decode in one way
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
// hash keeps a fuzzer from ever reaching one. It plants it in each place a
// map can be served from, each way of the block's set and each entry of the
// recent front, on an interner that holds nothing else. Each decode must
// equal the uncached one and serve the planted map only when it holds
// exactly the block's entries.
func TestInternerRefusesAForeignSlot(t *testing.T) {
	for _, c := range foreignSlotCases() {
		payload := withTargetBlock(c.block)
		want, err := DecodeEdge(payload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for place := range attrWays + attrRecent {
			in := quietInterner(t, []string{"t"})
			h := in.hash(c.block)
			planted := internedAttrs{hash: h, attrs: c.planted}
			where := fmt.Sprintf("way %d", place)
			if place < attrWays {
				in.attrs[h%attrSets][place] = planted
			} else {
				in.recent[place-attrWays] = planted
				where = fmt.Sprintf("recent %d", place-attrWays)
			}
			got, err := in.DecodeEdge(payload)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: decoded (%v, %v), want (%v, nil)", c.name, where, got.TargetAttrs, err, want.TargetAttrs)
			}
			if served := sameMap(got.TargetAttrs, c.planted); served != c.hit {
				t.Errorf("%s, %s: served the planted map %v: %v, want %v", c.name, where, c.planted, served, c.hit)
			}
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
// its damaged block enters none of the recent front, the table of first
// misses or the sets, the interner is exactly as A left it, and the second
// A decodes to the first, sharing its cached maps.
func TestInternerIgnoresFailedBlocks(t *testing.T) {
	se := newsEdge()
	se.TargetAttrs = graph.Attributes{"label": graph.String("topic-3"), "rank": graph.Int(2)}
	a := AppendEdge(nil, se)
	damaged := append([]byte(nil), a...)
	damaged[len(damaged)-2] = 0x7f // the kind byte of "rank", before its one-byte varint
	target := appendAttrs(nil, se.TargetAttrs)
	damagedTarget := damaged[len(damaged)-len(target):]
	in := quietInterner(t, []string{"mentions", "article", "keyword", "published", "label", "topic-3", "rank"})

	first, err := in.DecodeEdge(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := cachedIn(in, in.hash(target)); !reflect.DeepEqual(got, []string{"recent", "missed"}) {
		t.Fatalf("a block that missed once is in %v, want the recent front and the table of first misses", got)
	}
	before := *in
	if _, err := in.DecodeEdge(damaged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged block: want ErrCorrupt, got %v", err)
	}
	if got := cachedIn(in, in.hash(damagedTarget)); got != nil {
		t.Fatalf("the damaged block entered %v", got)
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
	if !sameMap(third.TargetAttrs, first.TargetAttrs) {
		t.Fatal("the valid block was not served from the cache")
	}
}

// TestInternerSkipsLongEncodings: a string or attribute block over 64 bytes
// never takes a slot, so what one interner retains stays within 512 strings
// of at most 64 bytes and 512+4 maps of blocks that short; one of exactly 64
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
	in := quietInterner(t, []string{edge, "note", "short"})
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
	if heldMap(in, a.TargetAttrs) || heldMap(in, b.TargetAttrs) || !heldMap(in, a.SourceAttrs) {
		t.Fatalf("held the long block's map %v, %v, the short one's %v; want false, false, true",
			heldMap(in, a.TargetAttrs), heldMap(in, b.TargetAttrs), heldMap(in, a.SourceAttrs))
	}
	if sameMap(a.TargetAttrs, b.TargetAttrs) {
		t.Fatal("a long attribute block was shared between decodes")
	}
}

// TestInternerSkipsEmptyBlocks: the empty attribute block never takes an
// entry, where it would evict a map that costs something to decode.
func TestInternerSkipsEmptyBlocks(t *testing.T) {
	var batch []graph.StreamEdge
	for i := range 4 {
		batch = append(batch, graph.StreamEdge{Edge: graph.Edge{ID: graph.EdgeID(i), Type: "flow"}})
	}
	in := NewInterner()
	if _, err := in.DecodeEdges(AppendEdges(nil, batch)); err != nil {
		t.Fatal(err)
	}
	var entries []internedAttrs
	entries = append(entries, in.recent[:]...)
	for i := range in.attrs {
		entries = append(entries, in.attrs[i][:]...)
	}
	for i, e := range entries {
		if e.hash != 0 || e.attrs != nil {
			t.Fatalf("entry %d holds %+v after decoding only empty blocks", i, e)
		}
	}
	if in.missed != [internSlots / 2][2]uint64{} {
		t.Fatal("the table of first misses holds a hash after decoding only empty blocks")
	}
}
