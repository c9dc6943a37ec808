package graph

import (
	"math/rand"
	"testing"
)

// homedAt returns n IDs from start up whose probe starts at slot home of t.
func homedAt(t *idTable, home, n int, start EdgeID) []EdgeID {
	var ids []EdgeID
	for id := start; len(ids) < n; id++ {
		if t.home(id) == home {
			ids = append(ids, id)
		}
	}
	return ids
}

// checkTable fails t unless tab holds exactly the handles of want, each
// found from its ID, and finds none of gone.
func checkTable(t *testing.T, when string, tab *idTable, r *records, want map[EdgeID]int32, gone []EdgeID) {
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
	var r records
	var tab idTable
	tab.grow(&r)
	if len(tab.slots) != minTableSlots {
		t.Fatalf("a new table has %d slots", len(tab.slots))
	}
	at14 := homedAt(&tab, 14, 3, 1)
	at15 := homedAt(&tab, 15, 1, 1)
	at0 := homedAt(&tab, 0, 2, 1)
	// Inserted in this order they fill slots 14, 15, 0, 1, 2, 3, 4: two
	// 14s, the 15, the third 14, both 0s, then one more 14.
	order := []EdgeID{at14[0], at14[1], at15[0], at14[2], at0[0], at0[1]}
	order = append(order, homedAt(&tab, 14, 4, 1)[3])
	want := make(map[EdgeID]int32)
	for _, id := range order {
		h := r.alloc(Edge{ID: id})
		tab.insert(&r, h)
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
	checkTable(t, "built", &tab, &r, want, nil)

	var gone []EdgeID
	del := func(when string, id EdgeID) {
		t.Helper()
		if h := tab.delete(&r, id); h != want[id] {
			t.Fatalf("%s: delete(%d) = handle %d, want %d", when, id, h, want[id])
		}
		delete(want, id)
		gone = append(gone, id)
		checkTable(t, when, &tab, &r, want, gone)
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
}

// TestIDTableMatchesMap inserts and deletes random IDs from a small range,
// growing the table: it must stay at most half full, and find what a map
// holds and not the ID just deleted.
func TestIDTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var r records
	var tab idTable
	want := make(map[EdgeID]int32)
	var gone []EdgeID
	for step := range 20000 {
		id := EdgeID(rng.Intn(600))
		gone = gone[:0]
		if h, ok := want[id]; ok {
			if got := tab.delete(&r, id); got != h {
				t.Fatalf("step %d: delete(%d) = %d, want %d", step, id, got, h)
			}
			r.release(h)
			delete(want, id)
			gone = append(gone, id)
		} else {
			h := r.alloc(Edge{ID: id})
			tab.insert(&r, h)
			want[id] = h
		}
		if 2*tab.n > len(tab.slots) {
			t.Fatalf("step %d: %d entries in %d slots", step, tab.n, len(tab.slots))
		}
		if step%97 == 0 {
			checkTable(t, "random", &tab, &r, want, gone)
		}
	}
	checkTable(t, "end", &tab, &r, want, nil)
}

// TestExpiredHandleWaitsForTheQueue: an edge's record is released only when
// the expiry queue passes its handle. The edge whose arrival expires it gets
// a fresh record, since the handle is still queued when that edge is added;
// the next edge, which carries the expired edge's ID again, reuses it.
func TestExpiredHandleWaitsForTheQueue(t *testing.T) {
	var expired []EdgeID
	d := NewDynamic(10, WithExpiryCallback(func(e *Edge) { expired = append(expired, e.ID) }))
	apply := func(step int, id EdgeID, ts Timestamp) *Edge {
		t.Helper()
		e, err := d.Apply(streamEdge(id, 1, 2, "flow", ts))
		if err != nil {
			t.Fatal(err)
		}
		checkRecycling(t, step, d)
		return e
	}
	first := apply(0, 1, 0)
	second := apply(1, 2, 5)
	third := apply(2, 3, 12)
	if third == first || third == second {
		t.Fatal("a handle was reused while the expiry queue held it")
	}
	if len(expired) != 1 || expired[0] != 1 || len(d.g.records.free) != 1 {
		t.Fatalf("expired %v with %d handles free, want [1] and 1", expired, len(d.g.records.free))
	}
	again := apply(3, 1, 13)
	if again != first || again.ID != 1 || again.Timestamp != 13 {
		t.Fatalf("the expired edge's ID arriving again got record %p holding %v, want %p", again, again, first)
	}
	if len(d.g.records.free) != 0 || d.queue.len() != 3 {
		t.Fatalf("%d handles free and %d queued, want 0 and 3", len(d.g.records.free), d.queue.len())
	}
}
