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
// against: the stored partials in insertion order, a set of their bindings,
// and per parent link a map from cut key to the partials indexed under it,
// in insertion order.
type refStore struct {
	stored    []*[]uint64
	byBinding map[string]bool
	buckets   []map[string][]*[]uint64
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
// and, where a window is 0, by the retention, with the parents' narrower
// windows dropping index entries the child keeps, and pruned partials stored
// again. Spans arrive out of order within a slack. The rows are indexed, as
// a backfill indexes them, so a repeated binding is refused, and a row
// binding the edges of a stored one to other vertices, as a mirrored
// fragment's row and its mirror do, is stored beside it: the dedup table
// is built over the stored rows before the first add and again after every
// sweep, which leaves it behind, as each backfill builds its own. It runs
// with the real hashes and with every row and key hash forced onto one value
// or sixteen, where only the word comparisons tell rows and keys apart.
func TestRowStoreAgainstMapReference(t *testing.T) {
	const slack = 40
	for _, tc := range []struct {
		name                          string
		child, left, right, retention time.Duration
	}{
		{name: "by window", child: 300, left: 120, right: 300, retention: 300},
		{name: "by retention", child: 0, left: 0, right: 150, retention: 200},
	} {
		for _, mask := range []uint64{^uint64(0), 0, 15} {
			t.Run(fmt.Sprintf("%s/mask %#x", tc.name, mask), func(t *testing.T) {
				hash := func(ws []uint64) uint64 { return match.HashEdgeSlots(ws) & mask }
				keyHash := func(row []uint64, cuts []query.VertexID) uint64 { return hashKey(row, cuts) & mask }
				rng := rand.New(rand.NewSource(27))
				n := rowStoreFixture(tc.child, tc.left, tc.right)
				s := &n.rows
				ref := refStore{byBinding: map[string]bool{}, buckets: []map[string][]*[]uint64{{}, {}}}
				pruned := map[string]bool{}
				s.index(hash)
				now, dups, mirrors, readded, dropped := graph.Timestamp(1000), 0, 0, 0, 0
				for op := 0; op < 6000; op++ {
					if rng.Intn(40) > 0 {
						now += graph.Timestamp(rng.Intn(3))
						row := make([]uint64, s.width)
						for e := 0; e < 3; e++ {
							row[6+e] = uint64(rng.Intn(12))
						}
						// The vertices follow from the edges, but for a coin
						// that swaps the first two.
						for v := 0; v < 6; v++ {
							row[v] = (row[6+v%3] + uint64(v)) % 4
						}
						if rng.Intn(2) == 0 {
							row[0], row[1] = row[1], row[0]
						}
						mirror := slices.Clone(s.binding(row))
						mirror[0], mirror[1] = mirror[1], mirror[0]
						if !slices.Equal(mirror, s.binding(row)) && ref.byBinding[fmt.Sprint(mirror)] {
							mirrors++
						}
						start := now - graph.Timestamp(rng.Intn(slack))
						s.setSpan(row, graph.Interval{Start: start, End: start + graph.Timestamp(rng.Intn(slack))})
						binding := fmt.Sprint(s.binding(row))
						r, added := s.add(row, hash)
						if added == ref.byBinding[binding] {
							t.Fatalf("op %d: add of %v = %v, the reference holds it: %v", op, row, added, ref.byBinding[binding])
						}
						if !added {
							dups++
							continue
						}
						if pruned[binding] {
							readded++
						}
						p := slices.Clone(row)
						ref.stored = append(ref.stored, &p)
						ref.byBinding[binding] = true
						for i, pl := range n.parents {
							pl.link.idx.add(s, pl.link.cuts, r, keyHash(row, pl.link.cuts))
							key := keyOf(row, pl.link.cuts)
							ref.buckets[i][key] = append(ref.buckets[i][key], &p)
						}
						if op%8 > 0 {
							continue
						}
					} else {
						removed := sweep(n, now, tc.retention, keyHash)
						s.index(hash)
						drops := func(window time.Duration, row []uint64) bool {
							if window == 0 {
								window = tc.retention
							}
							return s.span(row).Start < now-graph.Timestamp(window)
						}
						kept := ref.stored[:0]
						for _, p := range ref.stored {
							if drops(n.window, *p) {
								delete(ref.byBinding, fmt.Sprint(s.binding(*p)))
								pruned[fmt.Sprint(s.binding(*p))] = true
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
									if ref.byBinding[fmt.Sprint(s.binding(*p))] && !drops(pl.parent.window, *p) {
										keep = append(keep, p)
									} else if ref.byBinding[fmt.Sprint(s.binding(*p))] {
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
				if dups < 200 || mirrors < 200 || readded < 200 || dropped < 200 {
					t.Fatalf("vacuous: %d duplicates refused, %d mirrors stored, %d pruned partials stored again, %d index entries dropped under the child", dups, mirrors, readded, dropped)
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
// just before the edge at its index (the first at 0), and detaching, or
// re-attaching under the selective plan, the query named at an index, and
// returns every query's emissions. No callback runs inside an Attach or a
// Detach.
func sweepStream(t *testing.T, edges []graph.StreamEdge, retention, slack time.Duration, queries []*query.Graph, at []int, detach, reattachAt map[int]string) map[string][]string {
	t.Helper()
	dyn := graph.NewDynamic(retention, graph.WithSlack(slack))
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
		if name, ok := reattachAt[i]; ok {
			silently("re-attaching "+name, func() error {
				reattach(t, d, name, planFor(t, d.attachment(name).q))
				return nil
			})
		}
		if name, ok := detach[i]; ok {
			if err := d.Detach(name); err != nil {
				t.Fatal(err)
			}
		}
		feed(t, dyn, d, []graph.StreamEdge{se})
		if (i+1)%sweepEvery == 0 {
			d.Prune(dyn.Watermark(), nil)
		}
	}
	return col.sigs
}

// TestRowsMatchPrivateTreesAcrossSweeps: a stream with edges out of order
// within the slack, swept every sweepEvery edges, through a DAG whose shared
// leaf is pruned by the retention (a window-less query reads it) while the
// join above it drops index entries by a 2 s window; then a 10 s query of
// the narrow one's shape attaches mid-stream, widening and re-deriving the
// shared nodes from rows the narrow window had pruned; the two windowed
// queries are then re-attached under another plan, and the late one
// detaches again. No callback runs inside an attach or a detach, and every
// query is sent what a private SJ-Tree of its own — its first plan, swept at
// the same edges by its own window — emits while it is attached: in the same
// order, or for a query that moved, the same matches. The window-less query's tree has the
// retention as its window.
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
	moves := map[int]string{len(edges) * 2 / 3: "narrow", len(edges) * 3 / 4: "wide"}
	got := sweepStream(t, edges, retention, slack, queries, at, map[int]string{leave: "wide"}, moves)

	until := []int{len(edges), len(edges), leave}
	total := 0
	for qi, q := range queries {
		ref := q
		if q.Window() == 0 {
			ref = probe(q.Name(), retention)
		}
		want := prunedTreeSignatures(t, ref, decompose.StrategyEager, edges, at[qi], until[qi], retention, slack)
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
// (keepRows at least), and its key table eight slots per live row
// (8 at least) — a burst does not pin its capacity for ever. Rows added
// outside a backfill build no dedup table at all.
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
		if r, ok := s.add(row, match.HashEdgeSlots); ok {
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
		sweep(n, w*10+5, 0, hashKey)
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
	if s.indexed() || len(x.keys.slots) > max(8*live, 8) {
		t.Errorf("tables keep %d dedup and %d key slots for %d live rows", len(s.dedup.slots), len(x.keys.slots), live)
	}
}
