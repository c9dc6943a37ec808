package graph

import (
	"math/rand"
	"strconv"
	"testing"
	"unsafe"
)

// keyedStore is a record store an idTable can be keyed by, with a way to
// file a fresh record under an ID.
type keyedStore interface {
	keyer
	add(id uint64) int32
	release(h int32)
}

// released returns the handles on c's free stack, the last released first.
func (c *chunks[R, P]) released() []int32 {
	var hs []int32
	// A stack that loops yields more handles than were ever handed out.
	for s := c.free; s != 0 && len(hs) <= int(c.n); s = *P(c.at(s - 1)).freeLink() {
		hs = append(hs, s-1)
	}
	return hs
}

// queued returns the handles on d's expiry queue, from its head.
func (d *Dynamic) queued() []int32 {
	var hs []int32
	// A queue that loops yields more handles than were ever handed out.
	for s := d.head; s != 0 && len(hs) <= int(d.g.edges.n); s = d.g.edges.at(s - 1).later {
		hs = append(hs, s-1)
	}
	return hs
}

// The records are the window's cost per edge and per vertex: the expiry
// link fills the edge record's padding, and a chunk of 256 vertex records is
// 10 KiB, a runtime size class.
func TestRecordSizes(t *testing.T) {
	if e, v := unsafe.Sizeof(edgeRecord{}), unsafe.Sizeof(vertexRecord{}); e != 48 || v != 40 {
		t.Fatalf("an edge record is %d B and a vertex record %d B, want 48 and 40", e, v)
	}
}

type testEdges struct{ edgeRecords }

func (r *testEdges) add(id uint64) int32 {
	h := r.alloc()
	*r.at(h) = edgeRecord{id: EdgeID(id)}
	return h
}

type testVertices struct{ vertexRecords }

func (r *testVertices) add(id uint64) int32 {
	h := r.alloc()
	*r.at(h) = vertexRecord{id: VertexID(id)}
	return h
}

// eachStore runs fn once with edge records and once with vertex records:
// one idTable serves both.
func eachStore(t *testing.T, fn func(t *testing.T, r keyedStore)) {
	t.Run("edges", func(t *testing.T) { fn(t, new(testEdges)) })
	t.Run("vertices", func(t *testing.T) { fn(t, new(testVertices)) })
}

// homedAt returns n IDs from start up whose probe starts at slot home of t.
func homedAt(t *idTable, home, n int, start uint64) []uint64 {
	var ids []uint64
	for id := start; len(ids) < n; id++ {
		if t.home(id) == home {
			ids = append(ids, id)
		}
	}
	return ids
}

// checkTable fails t unless tab holds exactly the handles of want, each
// found from its ID, and finds none of gone.
func checkTable(t *testing.T, when string, tab *idTable, r keyer, want map[uint64]int32, gone []uint64) {
	t.Helper()
	if tab.n != len(want) {
		t.Fatalf("%s: table holds %d entries, want %d", when, tab.n, len(want))
	}
	for id, h := range want {
		if got := tab.find(r, id); got != h {
			t.Fatalf("%s: find(%d) = %d, want %d", when, id, got, h)
		}
	}
	for _, id := range gone {
		if got := tab.find(r, id); got >= 0 {
			t.Fatalf("%s: deleted ID %d still found, at handle %d", when, id, got)
		}
	}
}

// TestIDTableProbeChains builds one probe chain that wraps around the end of
// a 16-slot table, with entries homed in between, and deletes its head, an
// entry in the middle and one past the wrap: the backward shift must leave
// every other entry reachable from its home.
func TestIDTableProbeChains(t *testing.T) {
	eachStore(t, func(t *testing.T, r keyedStore) {
		var tab idTable
		tab.grow(r)
		if len(tab.slots) != minTableSlots {
			t.Fatalf("a new table has %d slots", len(tab.slots))
		}
		at14 := homedAt(&tab, 14, 3, 1)
		at15 := homedAt(&tab, 15, 1, 1)
		at0 := homedAt(&tab, 0, 2, 1)
		// Inserted in this order they fill slots 14, 15, 0, 1, 2, 3, 4: two
		// 14s, the 15, the third 14, both 0s, then one more 14.
		order := []uint64{at14[0], at14[1], at15[0], at14[2], at0[0], at0[1]}
		order = append(order, homedAt(&tab, 14, 4, 1)[3])
		want := make(map[uint64]int32)
		for _, id := range order {
			h := r.add(id)
			tab.insert(r, h)
			want[id] = h
		}
		if len(tab.slots) != minTableSlots {
			t.Fatalf("the table grew to %d slots with %d entries", len(tab.slots), tab.n)
		}
		for i, id := range order {
			if slot := (14 + i) % minTableSlots; tab.slots[slot]-1 != want[id] {
				t.Fatalf("ID %d (homed at %d) is not in slot %d: %v", id, tab.home(id), slot, tab.slots)
			}
		}
		checkTable(t, "built", &tab, r, want, nil)

		var gone []uint64
		del := func(when string, id uint64) {
			t.Helper()
			if h := tab.delete(r, id); h != want[id] {
				t.Fatalf("%s: delete(%d) = handle %d, want %d", when, id, h, want[id])
			}
			delete(want, id)
			gone = append(gone, id)
			checkTable(t, when, &tab, r, want, gone)
		}
		del("chain head (slot 14)", order[0])
		del("chain middle (the 15)", at15[0])
		del("wrapped entry (a 0)", at0[0])
		del("last 14, past the wrap", order[6])
		for _, id := range order {
			if _, ok := want[id]; ok {
				del("the rest", id)
			}
		}
		for i, s := range tab.slots {
			if s != 0 {
				t.Fatalf("slot %d holds %d after every delete", i, s)
			}
		}
	})
}

// TestIDTableMatchesMap inserts and deletes random IDs from a small range,
// growing the table: it must stay at most half full, and find what a map
// holds and not the ID just deleted.
func TestIDTableMatchesMap(t *testing.T) {
	eachStore(t, func(t *testing.T, r keyedStore) {
		rng := rand.New(rand.NewSource(36))
		var tab idTable
		want := make(map[uint64]int32)
		var gone []uint64
		for step := range 20000 {
			id := uint64(rng.Intn(600))
			gone = gone[:0]
			if h, ok := want[id]; ok {
				if got := tab.delete(r, id); got != h {
					t.Fatalf("step %d: delete(%d) = %d, want %d", step, id, got, h)
				}
				r.release(h)
				delete(want, id)
				gone = append(gone, id)
			} else {
				h := r.add(id)
				tab.insert(r, h)
				want[id] = h
			}
			if 2*tab.n > len(tab.slots) {
				t.Fatalf("step %d: %d entries in %d slots", step, tab.n, len(tab.slots))
			}
			if step%97 == 0 {
				checkTable(t, "random", &tab, r, want, gone)
			}
		}
		checkTable(t, "end", &tab, r, want, nil)
	})
}

// TestExpiredHandleWaitsForTheQueue: an edge's record is released only when
// the expiry queue passes its handle. The edge whose arrival expires it gets
// a fresh record, since the handle is still queued when that edge is added;
// the next edge, which carries the expired edge's ID again, reuses it.
func TestExpiredHandleWaitsForTheQueue(t *testing.T) {
	var expired []EdgeID
	d := NewDynamic(10, WithExpiryCallback(func(e *Edge) { expired = append(expired, e.ID) }))
	apply := func(step int, id EdgeID, ts Timestamp) int32 {
		t.Helper()
		if _, err := d.Apply(streamEdge(id, 1, 2, "flow", ts)); err != nil {
			t.Fatal(err)
		}
		checkRecycling(t, step, d)
		return d.g.edgeIDs.find(&d.g.edges, uint64(id))
	}
	first := apply(0, 1, 0)
	second := apply(1, 2, 5)
	third := apply(2, 3, 12)
	if third == first || third == second {
		t.Fatal("a handle was reused while the expiry queue held it")
	}
	if len(expired) != 1 || expired[0] != 1 || len(d.g.edges.released()) != 1 {
		t.Fatalf("expired %v with %d handles free, want [1] and 1", expired, len(d.g.edges.released()))
	}
	again := apply(3, 1, 13)
	if e, _ := d.g.Edge(1); again != first || e.Timestamp != 13 {
		t.Fatalf("the expired edge's ID arriving again got handle %d holding %v, want %d", again, e, first)
	}
	if len(d.g.edges.released()) != 0 || len(d.queued()) != 3 {
		t.Fatalf("%d handles free and %d queued, want 0 and 3", len(d.g.edges.released()), len(d.queued()))
	}
}

// TestTypeTableIsBoundedByTheWindow pushes 10,000 edge types and 10,000
// vertex types through a 1-s window, a second apart: a type is dropped once
// no vertex or edge of the window has it, and its index reused, so the table
// never holds more than the few types in the window. Once the window drains
// it holds none, and a gone type counts 0.
func TestTypeTableIsBoundedByTheWindow(t *testing.T) {
	const n, second = 10000, Timestamp(1e9)
	d := NewDynamic(1e9)
	g := d.Graph()
	name := func(kind string, i int) string { return kind + "-" + strconv.Itoa(i) }
	for i := range n {
		se := streamEdge(EdgeID(i+1), VertexID(2*i+1), VertexID(2*i+2), name("edge", i), Timestamp(i)*second)
		se.SourceType, se.TargetType = name("vertex", i), name("vertex", i)
		if _, err := d.Apply(se); err != nil {
			t.Fatal(err)
		}
		if got := g.CountEdgesOfType(name("edge", i)); got != 1 {
			t.Fatalf("edge %d: %d edges of its type, want 1", i, got)
		}
		if got := g.CountVerticesOfType(name("vertex", i)); got != 2 {
			t.Fatalf("edge %d: %d vertices of its type, want 2", i, got)
		}
		if len(g.types.names) > 8 {
			t.Fatalf("edge %d: the type table has %d indexes for %d live edges", i, len(g.types.names), d.NumEdges())
		}
	}
	d.AdvanceTo(Timestamp(n+2) * second)
	if d.NumEdges() != 0 || d.NumVertices() != 0 {
		t.Fatalf("the window holds %d edges and %d vertices after draining", d.NumEdges(), d.NumVertices())
	}
	if len(g.types.index) != 0 || len(g.types.free) != len(g.types.names) {
		t.Fatalf("a drained table indexes %d types and frees %d of its %d indexes",
			len(g.types.index), len(g.types.free), len(g.types.names))
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if e, v := g.CountEdgesOfType(name("edge", i)), g.CountVerticesOfType(name("vertex", i)); e != 0 || v != 0 {
			t.Fatalf("gone types of edge %d count %d edges and %d vertices", i, e, v)
		}
	}
}
