package mqo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
)

// refStore is the map-of-pointers reference the row store is checked
// against: the stored partials in insertion order, a set of their edge
// bindings, and per parent link a map from cut key to the partials indexed
// under it, in insertion order.
type refStore struct {
	stored  []*[]uint64
	byEdges map[string]bool
	buckets []map[string][]*[]uint64
}

// rowStoreFixture is a child node of 6 vertices and 3 edges under two parent
// links: one cut on 2 vertices, one on 5 — wider than a key could hold
// inline — each with its parent's window.
func rowStoreFixture(window, leftWindow, rightWindow time.Duration) *node {
	child := &node{rows: newRows(6, 3), window: window}
	for _, pw := range []struct {
		window time.Duration
		cuts   []query.VertexID
	}{{leftWindow, []query.VertexID{4, 1}}, {rightWindow, []query.VertexID{0, 2, 3, 5, 1}}} {
		child.parents = append(child.parents, &parentLink{
			parent: &node{window: pw.window},
			link:   &childLink{child: child, cuts: pw.cuts},
		})
	}
	return child
}

func keyOf(row []uint64, cuts []query.VertexID) string {
	key := make([]uint64, len(cuts))
	for i, v := range cuts {
		key[i] = row[v]
	}
	return fmt.Sprint(key)
}

// TestRowStoreAgainstMapReference: under random interleavings of adds — a
// small data-ID space, so bindings repeat and cut keys collide — and prune
// sweeps, a node's rows and its two parent links' cut indexes hold exactly
// what the reference holds: the same partials in insertion order, the same
// partials under every cut key in insertion order, across prunes by window
// and by expired edge, with the parents' narrower windows dropping index
// entries the child keeps, and pruned partials stored again. Spans arrive out
// of order within a slack. It runs with the real hashes and with every row
// and key hash forced onto one value or sixteen, where only the word
// comparisons tell rows and keys apart.
func TestRowStoreAgainstMapReference(t *testing.T) {
	const slack = 40
	for _, tc := range []struct {
		name               string
		child, left, right time.Duration
	}{
		{name: "by window", child: 300, left: 120, right: 300},
		{name: "by expired edge", child: 0, left: 0, right: 150},
	} {
		for _, mask := range []uint64{^uint64(0), 0, 15} {
			t.Run(fmt.Sprintf("%s/mask %#x", tc.name, mask), func(t *testing.T) {
				edgeHash := func(ws []uint64) uint64 { return match.HashEdgeSlots(ws) & mask }
				keyHash := func(row []uint64, cuts []query.VertexID) uint64 { return hashKey(row, cuts) & mask }
				rng := rand.New(rand.NewSource(27))
				n := rowStoreFixture(tc.child, tc.left, tc.right)
				s := &n.rows
				ref := refStore{byEdges: map[string]bool{}, buckets: []map[string][]*[]uint64{{}, {}}}
				pruned := map[string]bool{}
				expired := map[graph.EdgeID]struct{}{}
				now, dups, readded, dropped := graph.Timestamp(1000), 0, 0, 0
				for op := 0; op < 6000; op++ {
					if rng.Intn(40) > 0 {
						now += graph.Timestamp(rng.Intn(3))
						row := make([]uint64, s.width)
						for v := 0; v < 6; v++ {
							row[v] = uint64(rng.Intn(4))
						}
						for e := 0; e < 3; e++ {
							row[6+e] = uint64(rng.Intn(12))
						}
						start := now - graph.Timestamp(rng.Intn(slack))
						s.setSpan(row, graph.Interval{Start: start, End: start + graph.Timestamp(rng.Intn(slack))})
						edges := fmt.Sprint(s.edges(row))
						r, added := s.add(edgeHash(s.edges(row)), row)
						if added == ref.byEdges[edges] {
							t.Fatalf("op %d: add of %v = %v, the reference holds it: %v", op, row, added, ref.byEdges[edges])
						}
						if !added {
							dups++
							continue
						}
						if pruned[edges] {
							readded++
						}
						p := slices.Clone(row)
						ref.stored = append(ref.stored, &p)
						ref.byEdges[edges] = true
						for i, pl := range n.parents {
							pl.link.idx.add(s, pl.link.cuts, r, keyHash(row, pl.link.cuts))
							key := keyOf(row, pl.link.cuts)
							ref.buckets[i][key] = append(ref.buckets[i][key], &p)
						}
						if op%8 > 0 {
							continue
						}
					} else {
						// A sweep: the expired edges are a random few of the
						// edge IDs, as if they had left the retention.
						clear(expired)
						for e := rng.Intn(3); e > 0; e-- {
							expired[graph.EdgeID(rng.Intn(12))] = struct{}{}
						}
						removed := sweep(n, now, expired, edgeHash, keyHash)
						drops := func(window time.Duration, row []uint64) bool {
							if window > 0 {
								return s.span(row).Start < now-graph.Timestamp(window)
							}
							return slices.ContainsFunc(s.edges(row), func(e uint64) bool {
								_, gone := expired[graph.EdgeID(e)]
								return gone
							})
						}
						kept := ref.stored[:0]
						for _, p := range ref.stored {
							if drops(n.window, *p) {
								delete(ref.byEdges, fmt.Sprint(s.edges(*p)))
								pruned[fmt.Sprint(s.edges(*p))] = true
								continue
							}
							kept = append(kept, p)
						}
						if got := len(ref.stored) - len(kept); removed != got {
							t.Fatalf("op %d: sweep removed %d rows, the reference %d", op, removed, got)
						}
						ref.stored = kept
						for i, pl := range n.parents {
							for key, list := range ref.buckets[i] {
								keep := list[:0]
								for _, p := range list {
									if ref.byEdges[fmt.Sprint(s.edges(*p))] && !drops(pl.parent.window, *p) {
										keep = append(keep, p)
									} else if ref.byEdges[fmt.Sprint(s.edges(*p))] {
										dropped++
									}
								}
								if ref.buckets[i][key] = keep; len(keep) == 0 {
									delete(ref.buckets[i], key)
								}
							}
						}
					}
					checkRowStore(t, op, n, &ref, keyHash)
				}
				if dups < 200 || readded < 200 || dropped < 200 {
					t.Fatalf("vacuous: %d duplicates refused, %d pruned partials stored again, %d index entries dropped under the child", dups, readded, dropped)
				}
			})
		}
	}
}

// checkRowStore compares the store and its cut indexes with the reference:
// the rows in order, and for every key the reference knows, and one it does
// not, the probe chain in order, probed under keyHash.
func checkRowStore(t *testing.T, op int, n *node, ref *refStore, keyHash func([]uint64, []query.VertexID) uint64) {
	t.Helper()
	s := &n.rows
	if s.len() != len(ref.stored) {
		t.Fatalf("op %d: %d rows stored, the reference holds %d", op, s.len(), len(ref.stored))
	}
	for r, p := range ref.stored {
		if !slices.Equal(s.row(r), *p) {
			t.Fatalf("op %d: row %d is %v, the reference's %v", op, r, s.row(r), *p)
		}
	}
	for i, pl := range n.parents {
		x, cuts := &pl.link.idx, pl.link.cuts
		if x.keys.n != len(ref.buckets[i]) || len(x.next) != s.len() {
			t.Fatalf("op %d, link %d: %d keys and %d chain entries for %d rows, the reference has %d keys", op, i, x.keys.n, len(x.next), s.len(), len(ref.buckets[i]))
		}
		probe := make([]uint64, s.width)
		for k := range probe {
			probe[k] = 99 // a key no row has
		}
		for key, list := range ref.buckets[i] {
			var got []uint64
			for r := x.probe(s, cuts, *list[0], cuts, keyHash(*list[0], cuts)); r != chainEnd; r = int(x.next[r]) {
				got = append(got, s.row(r)...)
			}
			var want []uint64
			for _, p := range list {
				want = append(want, *p...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d, link %d, key %s: probe yields %v, the reference %v", op, i, key, got, want)
			}
		}
		if r := x.probe(s, cuts, probe, cuts, keyHash(probe, cuts)); r != chainEnd {
			t.Fatalf("op %d, link %d: a key no row has probes to row %d", op, i, r)
		}
	}
}

// randomRow draws a full row of nv vertices and ne edges: distinct data
// vertices from a space small enough that two rows often share — or clash
// on — a vertex, and edges from one as small.
func randomRow(rng *rand.Rand, nv, ne int) ([]uint64, *match.Match) {
	row := make([]uint64, nv+ne+2)
	m := match.NewSized(nv, ne)
	for qv, dv := range rng.Perm(7)[:nv] {
		row[qv] = uint64(dv)
		m.BindVertex(query.VertexID(qv), graph.VertexID(dv))
	}
	for qe := 0; qe < ne; qe++ {
		de, ts := rng.Intn(5), graph.Timestamp(rng.Intn(1000))
		row[nv+qe] = uint64(de)
		m.BindEdge(query.EdgeID(qe), graph.EdgeID(de), ts)
	}
	row[nv+ne], row[nv+ne+1] = uint64(m.Span.Start), uint64(m.Span.End)
	return row, m
}

// randomMap draws an injective map from n child IDs into size parent IDs.
func randomMap[ID ~int](rng *rand.Rand, n, size int) []ID {
	out := make([]ID, n)
	for i, p := range rng.Perm(size)[:n] {
		out[i] = ID(p)
	}
	return out
}

// TestRowJoinIsRemapRemapJoin is the property the DAG's store-it-once join
// rests on: for arbitrary child rows and injective maps into a common parent
// space, joinRows refuses exactly when joining the two remapped matches does
// — shared vertices bound apart, one data vertex under two parent vertices,
// a parent edge bound to two data edges — and otherwise writes the very same
// bindings and span. A third of the draws read one child through both maps,
// as a parent whose two links share a child does.
func TestRowJoinIsRemapRemapJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	joined, refused := 0, 0
	for i := 0; i < 200_000; i++ {
		nv, ne := 3+rng.Intn(4), 2+rng.Intn(4)
		av, ae := 1+rng.Intn(nv), 1+rng.Intn(ne)
		a, am := randomRow(rng, av, ae)
		b, bm, bv, be := a, am, av, ae
		if rng.Intn(3) > 0 {
			bv, be = 1+rng.Intn(nv), 1+rng.Intn(ne)
			b, bm = randomRow(rng, bv, be)
		}
		avm, aem := randomMap[query.VertexID](rng, av, nv), randomMap[query.EdgeID](rng, ae, ne)
		bvm, bem := randomMap[query.VertexID](rng, bv, nv), randomMap[query.EdgeID](rng, be, ne)
		link := func(rv, re int, vm []query.VertexID, em []query.EdgeID) *childLink {
			l := &childLink{child: &node{rows: newRows(rv, re)}}
			for _, v := range vm {
				l.pos = append(l.pos, int(v))
			}
			for _, e := range em {
				l.pos = append(l.pos, nv+int(e))
			}
			return l
		}
		l, o := link(av, ae, avm, aem), link(bv, be, bvm, bem)
		p := &node{rows: newRows(nv, ne)}
		p.row = make([]uint64, p.rows.width)

		var arena match.Arena
		remap := func(m *match.Match, rv int, vm []query.VertexID, em []query.EdgeID) *match.Match {
			return arena.RemapSlots(nv, ne, m.Slots()[:rv], m.Slots()[rv:], vm, em, m.Span)
		}
		want := remap(am, av, avm, aem).Join(remap(bm, bv, bvm, bem))
		if got := joinRows(p, a, l, b, o); got != (want != nil) {
			t.Fatalf("draw %d: joinRows = %v, Remap+Remap+Join = %v\na = %v via %v\nb = %v via %v", i, got, want, a, l.pos, b, o.pos)
		}
		if want == nil {
			refused++
			continue
		}
		joined++
		if !slices.Equal(p.row[:nv+ne], want.Slots()) || p.rows.span(p.row) != want.Span {
			t.Fatalf("draw %d: joinRows wrote %v, Remap+Remap+Join = %v %v", i, p.row, want, want.Slots())
		}
	}
	if joined < 5_000 || refused < 5_000 {
		t.Fatalf("%d joined, %d refused: the draws do not cover both outcomes", joined, refused)
	}
}

// sweepEvery is how many edges sweepStream and prunedTreeSignatures let pass
// between prune sweeps.
const sweepEvery = 16

// sweepStream feeds edges to a DAG over a window graph with the given
// retention and slack, sweeping every sweepEvery edges, attaching each query
// just before the edge at its index (the first at 0), and detaching or
// swapping onto the selective plan the query named at an index, and returns
// every query's emissions. No callback runs inside an Attach or a Swap.
func sweepStream(t *testing.T, edges []graph.StreamEdge, retention, slack time.Duration, queries []*query.Graph, at []int, detach, swap map[int]string) map[string][]string {
	t.Helper()
	expired := map[graph.EdgeID]struct{}{}
	dyn := graph.NewDynamic(retention, graph.WithSlack(slack),
		graph.WithExpiryCallback(func(e *graph.Edge) { expired[e.ID] = struct{}{} }))
	d := New(dyn)
	col := newCollector()
	sent := func() int {
		n := 0
		for _, sigs := range col.sigs {
			n += len(sigs)
		}
		return n
	}
	silently := func(what string, f func() error) {
		t.Helper()
		before := sent()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		if n := sent() - before; n != 0 {
			t.Fatalf("%s sent %d matches", what, n)
		}
	}
	for i, se := range edges {
		for qi, q := range queries {
			if at[qi] == i {
				silently("attaching "+q.Name(), func() error {
					_, err := d.Attach(q.Name(), q, planWith(t, q, decompose.StrategyEager), AttachOptions{Emit: col.emitFn(q.Name())})
					return err
				})
			}
		}
		if name, ok := swap[i]; ok {
			silently("swapping "+name, func() error {
				_, err := d.Swap(name, planFor(t, d.atts[name].q))
				return err
			})
		}
		if name, ok := detach[i]; ok {
			if err := d.Detach(name); err != nil {
				t.Fatal(err)
			}
		}
		feed(t, dyn, d, []graph.StreamEdge{se})
		if (i+1)%sweepEvery == 0 {
			d.Prune(dyn.Watermark(), expired)
			clear(expired)
		}
	}
	return col.sigs
}

// TestRowsMatchPrivateTreesAcrossSweeps: a stream with edges out of order
// within the slack, swept every sweepEvery edges, through a DAG whose shared
// leaf is pruned by expired edge (a window-less query reads it) while the
// join above it drops index entries by a 2 s window; then a 10 s query of
// the narrow one's shape attaches mid-stream, widening and re-deriving the
// shared nodes from rows the narrow window had pruned; the two windowed
// queries then swap onto another plan, and the late one detaches again. No
// callback runs inside an attach or a swap, and every query is sent what a
// private SJ-Tree of its own — its first plan, swept at the same edges by
// its own window — emits while it is attached: in the same order, or for a
// query that swapped, the same matches. The trees are on the DAG's plans: a
// window-less query is sent what its partials hold between sweeps, edges the
// window graph has expired included, which a search of the whole pattern
// over the live graph would not find; a windowed query's matches do not
// depend on its plan.
func TestRowsMatchPrivateTreesAcrossSweeps(t *testing.T) {
	const retention, slack = 20 * time.Second, time.Second
	rng := rand.New(rand.NewSource(3))
	base := graph.TimestampFromTime(time.Unix(10_000, 0))
	types := []string{"icmp_echo_req", "icmp_echo_reply", "dns"}
	var edges []graph.StreamEdge
	for i := 0; i < 3000; i++ {
		src, dst := graph.VertexID(rng.Intn(40)), graph.VertexID(rng.Intn(40))
		if src == dst {
			continue
		}
		at := base.Add(time.Duration(i)*100*time.Millisecond - time.Duration(rng.Intn(900))*time.Millisecond)
		edges = append(edges, hostEdge(graph.EdgeID(i+1), src, dst, types[rng.Intn(3)], at))
	}
	queries := []*query.Graph{smurf("narrow", 2*time.Second), probe("probe", 0), smurf("wide", 10*time.Second)}
	at := []int{0, 0, len(edges) / 2 / sweepEvery * sweepEvery} // right after a sweep
	leave := len(edges) * 5 / 6
	swaps := map[int]string{len(edges) * 2 / 3: "narrow", len(edges) * 3 / 4: "wide"}
	got := sweepStream(t, edges, retention, slack, queries, at, map[int]string{leave: "wide"}, swaps)

	until := []int{len(edges), len(edges), leave}
	total := 0
	for qi, q := range queries {
		want := prunedTreeSignatures(t, q, decompose.StrategyEager, edges, at[qi], until[qi], retention, slack)
		if q.Name() != "probe" {
			// Another plan finds one edge's matches in another order.
			slices.Sort(want)
			slices.Sort(got[q.Name()])
		}
		if !slices.Equal(got[q.Name()], want) {
			t.Errorf("%s emitted %d matches, its private tree %d", q.Name(), len(got[q.Name()]), len(want))
		}
		total += len(want)
	}
	if len(got["wide"]) < 100 || total < 1000 {
		t.Fatalf("vacuous: %d matches in all, %d to the late query", total, len(got["wide"]))
	}
}

// TestRowStoreShrinksAfterABurst: a burst of partials, then quiet windows
// with a trickle: once the burst has been swept, the node's arena and its
// link's chain array hold at most four rows of capacity per live row
// (keepRows at least), and its dedup and key tables eight slots per live row
// (8 at least) — a burst does not pin its capacity for ever.
func TestRowStoreShrinksAfterABurst(t *testing.T) {
	n := rowStoreFixture(10, 10, 10)
	n.parents = n.parents[:1]
	s, x := &n.rows, &n.parents[0].link.idx
	add := func(i int, at graph.Timestamp) {
		row := make([]uint64, s.width)
		for v := range row[:s.nv] {
			row[v] = uint64(i)
		}
		for e := range s.edges(row) {
			row[s.nv+e] = uint64(i)
		}
		s.setSpan(row, graph.NewInterval(at))
		if r, ok := s.add(match.HashEdgeSlots(s.edges(row)), row); ok {
			x.add(s, n.parents[0].link.cuts, r, hashKey(row, n.parents[0].link.cuts))
		}
	}
	for i := 0; i < 20_000; i++ {
		add(i, 0)
	}
	burst := cap(s.words)
	for w := graph.Timestamp(1); w <= 6; w++ {
		for i := 0; i < 5; i++ {
			add(100_000+int(w)*10+i, w*10)
		}
		sweep(n, w*10+5, nil, match.HashEdgeSlots, hashKey)
	}
	live := s.len()
	if live != 5 || burst < 20_000*s.width {
		t.Fatalf("%d live rows after the quiet windows, burst capacity %d words", live, burst)
	}
	if c := cap(s.words); c > max(4*live, keepRows)*s.width {
		t.Errorf("arena keeps %d words for %d live rows of %d", c, live, s.width)
	}
	if c := cap(x.next); c > max(4*live, keepRows) {
		t.Errorf("chain array keeps %d entries for %d live rows", c, live)
	}
	if len(s.dedup.slots) > max(8*live, 8) || len(x.keys.slots) > max(8*live, 8) {
		t.Errorf("tables keep %d dedup and %d key slots for %d live rows", len(s.dedup.slots), len(x.keys.slots), live)
	}
}
