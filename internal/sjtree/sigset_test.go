package sjtree

import (
	"math/rand"
	"testing"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// bindingAt binds a random subset of up to `edges` pattern edges to data
// edges within `spread` IDs below now — a small ID space, so independent
// draws often repeat a binding.
func bindingAt(rng *rand.Rand, edges, now, spread int) *match.Match {
	m := match.NewSized(0, edges)
	for qe := 0; qe < edges; qe++ {
		if qe == 0 || rng.Intn(4) > 0 {
			id := max(now-rng.Intn(spread), 0)
			m.BindEdge(query.EdgeID(qe), graph.EdgeID(id), graph.Timestamp(id))
		}
	}
	return m
}

// TestCompleteSetAgainstMapReference: under random adds, the set accepts
// exactly what a map from binding accepts — with the real hash and with
// entries forced onto one or sixteen 64-bit hashes, where only the stored
// words can tell bindings apart. A few bindings are wider than an arena
// chunk.
func TestCompleteSetAgainstMapReference(t *testing.T) {
	for name, hash := range map[string]func(*match.Match) uint64{
		"real hash":    (*match.Match).EdgeSetHash,
		"one hash":     func(*match.Match) uint64 { return 42 },
		"sixteen hash": func(m *match.Match) uint64 { return m.EdgeSetHash() & 15 << 60 },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			var set completeSet
			ref := map[string]bool{}
			for i := 0; i < 6000; i++ {
				now := i / 16
				m := bindingAt(rng, 1+rng.Intn(3), now, 8)
				switch {
				case i%700 == 0:
					m = bindingAt(rng, 1<<arenaChunkBits+5, now, 8)
				case i%4 == 0:
					m = bindingAt(rng, 1+rng.Intn(12), now, 30)
				}
				sig, got := m.Signature(), set.addHashed(hash(m), m)
				if got == ref[sig] {
					t.Fatalf("op %d: add of %q = %v, reference knows it: %v", i, sig, got, ref[sig])
				}
				ref[sig] = true
			}
			if set.n != len(ref) {
				t.Fatalf("set holds %d entries, the reference %d", set.n, len(ref))
			}
			if set.n > 5000 {
				t.Fatalf("%d distinct bindings in 6000 adds: too few repeats to test", set.n)
			}
		})
	}
}

// TestCompleteSetKeepsEverythingWithoutRetention: the set has no retention
// and no expiry — it only grows. Over a long stream of bindings, most of them
// repeats, every binding it ever admitted, the earliest included, is still
// refused at the end, and it holds exactly what it admitted.
func TestCompleteSetKeepsEverythingWithoutRetention(t *testing.T) {
	const steps = 5000
	draws := func() []*match.Match {
		rng := rand.New(rand.NewSource(5))
		out := make([]*match.Match, steps)
		for now := range out {
			out[now] = bindingAt(rng, 3, now, 50)
		}
		return out
	}
	var set completeSet
	added := 0
	for _, m := range draws() {
		if set.add(m) {
			added++
		}
	}
	if set.n != added || added == steps || added < steps/2 {
		t.Fatalf("%d entries held, %d admitted of %d bindings", set.n, added, steps)
	}
	for now, m := range draws() {
		if set.add(m) {
			t.Fatalf("binding drawn at %d admitted twice", now)
		}
	}
	if set.n != added {
		t.Fatalf("set holds %d entries after the replay, want %d", set.n, added)
	}
}

// TestCompleteSetGrowsAcrossChunks fills the arena well past its first
// chunks — including one binding wider than a whole chunk — and checks every
// entry is still found, and nothing else is.
func TestCompleteSetGrowsAcrossChunks(t *testing.T) {
	var set completeSet
	bind := func(i int) *match.Match {
		m := match.NewSized(0, 3)
		for qe := 0; qe < 3; qe++ {
			m.BindEdge(query.EdgeID(qe), graph.EdgeID(3*i+qe), 0)
		}
		return m
	}
	wide := match.NewSized(0, 1<<arenaChunkBits+5)
	for qe := 0; qe < 1<<arenaChunkBits+5; qe++ {
		wide.BindEdge(query.EdgeID(qe), graph.EdgeID(qe), 0)
	}
	const n = 40_000
	for i := 0; i < n; i++ {
		if i == n/2 && !set.add(wide) {
			t.Fatal("wide binding rejected")
		}
		if !set.add(bind(i)) {
			t.Fatalf("fresh binding %d rejected", i)
		}
	}
	if chunks := len(set.chunks); chunks < 10 {
		t.Fatalf("only %d chunks after %d entries", chunks, n)
	}
	for i := 0; i < n; i++ {
		if set.add(bind(i)) {
			t.Fatalf("binding %d lost", i)
		}
	}
	if set.add(wide) {
		t.Fatal("wide binding lost")
	}
	if !set.add(bind(n)) || set.n != n+2 {
		t.Fatalf("set holds %d entries, want %d", set.n, n+2)
	}
}

// TestArenaCapacityFollowsWhatIsStored: past its first 8 KiB an arena never
// holds more than a third again of what it stores, at every fill level — the
// capacity climbs in small steps, so what a set pins does not jump by half
// when a stream brings a few more matches.
func TestArenaCapacityFollowsWhatIsStored(t *testing.T) {
	var set completeSet
	for i := 0; i < 30_000; i++ {
		m := match.NewSized(0, 3)
		for qe := 0; qe < 3; qe++ {
			m.BindEdge(query.EdgeID(qe), graph.EdgeID(3*i+qe), 0)
		}
		if !set.add(m) {
			t.Fatalf("fresh binding %d rejected", i)
		}
		stored, capacity := 0, 0
		for _, c := range set.chunks {
			stored, capacity = stored+len(c), capacity+cap(c)
		}
		if stored >= 16<<arenaFirstBits && 3*capacity > 4*stored {
			t.Fatalf("after %d entries the arena holds %d words in %d of capacity", i+1, stored, capacity)
		}
	}
}

// TestEmittedSetAddAllocationBudget: recording a fresh emission allocates
// nothing, amortised over table doublings and arena chunks.
func TestEmittedSetAddAllocationBudget(t *testing.T) {
	var set EmittedSet
	fresh := make([]*match.Match, allocbudget.Runs+1) // one per call, built up front
	for i := range fresh {
		fresh[i] = match.NewSized(0, 3)
		for qe := 0; qe < 3; qe++ {
			fresh[i].BindEdge(query.EdgeID(qe), graph.EdgeID(3*i+qe), 0)
		}
	}
	next := 0
	allocbudget.Check(t, "sjtree.EmittedSet.Add", func() {
		if !set.Add(fresh[next]) {
			t.Fatal("fresh binding rejected")
		}
		next++
	})
}

// TestEmittedSetDuplicateAddAllocationBudget: refusing a match already
// emitted — what the set does for every repeat completion — allocates
// nothing.
func TestEmittedSetDuplicateAddAllocationBudget(t *testing.T) {
	var set EmittedSet
	known := make([]*match.Match, 4096)
	for i := range known {
		known[i] = match.NewSized(0, 3)
		for qe := 0; qe < 3; qe++ {
			known[i].BindEdge(query.EdgeID(qe), graph.EdgeID(3*i+qe), 0)
		}
		set.Add(known[i])
	}
	next := 0
	allocbudget.Check(t, "sjtree.EmittedSet.Add/duplicate", func() {
		if set.Add(known[next%len(known)]) {
			t.Fatal("emitted binding admitted again")
		}
		next++
	})
	if set.Total() != uint64(len(known)) {
		t.Fatalf("set counts %d emissions, want %d", set.Total(), len(known))
	}
}

// TestSigSetAgainstMapReference: under random interleavings of add, prune
// and re-add, the flat table accepts exactly what a map from signature to
// match accepts — with the real hash and with every entry forced onto one or
// sixteen 64-bit hashes, where only match.SameEdges tells bindings apart and
// probe chains run through pruned entries' old slots. Pruning rebuilds the
// table from what it kept, as an SJ-Tree node does, including down to nothing
// and back up.
func TestSigSetAgainstMapReference(t *testing.T) {
	for name, hash := range map[string]func(*match.Match) uint64{
		"real hash":    (*match.Match).EdgeSetHash,
		"one hash":     func(*match.Match) uint64 { return 42 },
		"sixteen hash": func(m *match.Match) uint64 { return m.EdgeSetHash() & 15 << 60 },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var set sigSet
			ref := map[string]*match.Match{}
			readded := 0
			pruned := map[string]bool{}
			for i := 0; i < 4000; i++ {
				if r := rng.Intn(100); r < 95 {
					m := bindingAt(rng, 1+rng.Intn(4), 60, 60)
					sig := m.Signature()
					_, known := ref[sig]
					if got := set.addHashed(hash(m), m); got == known {
						t.Fatalf("op %d: add of %q = %v, reference knows it: %v", i, sig, got, known)
					}
					if !known {
						ref[sig] = m
						if pruned[sig] {
							readded++
						}
					}
				} else {
					// Prune a random share — now and then everything — and
					// rebuild from the rest, the way the owners do.
					share := rng.Intn(4)
					var kept []*match.Match
					for sig, m := range ref {
						if share == 3 || rng.Intn(3) < share {
							delete(ref, sig)
							pruned[sig] = true
						} else {
							kept = append(kept, m)
						}
					}
					set.reset(len(kept))
					for _, m := range kept {
						if !set.addHashed(hash(m), m) {
							t.Fatalf("op %d: kept match %q rejected on rebuild", i, m.Signature())
						}
					}
				}
				if set.n != len(ref) {
					t.Fatalf("op %d: set holds %d, reference %d", i, set.n, len(ref))
				}
			}
			if readded < 50 {
				t.Fatalf("only %d pruned bindings were added again", readded)
			}
			for sig, m := range ref {
				if set.addHashed(hash(m), m.Clone()) {
					t.Fatalf("%q lost", sig)
				}
			}
		})
	}
}

// TestSigSetResetShrinksTheTable: a set reset for a sliver of what it held
// and given back only that sliver forgets the rest (so it can be added
// again), keeps the sliver, and lets go of a table sized for what it used to
// hold — the rebuild a pruned SJ-Tree node does.
func TestSigSetResetShrinksTheTable(t *testing.T) {
	var set sigSet
	bind := func(i int) *match.Match {
		m := match.NewSized(0, 2)
		m.BindEdge(0, graph.EdgeID(i), graph.Timestamp(i))
		return m
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if !set.add(bind(i)) {
			t.Fatalf("fresh match %d rejected", i)
		}
	}
	big := len(set.table)
	set.reset(100)
	for i := n - 100; i < n; i++ {
		set.add(bind(i))
	}
	if len(set.table) >= big/8 || set.n != 100 {
		t.Fatalf("table has %d slots for %d entries after the reset, %d before", len(set.table), set.n, big)
	}
	for i := 0; i < n; i++ {
		if got, want := set.add(bind(i)), i < n-100; got != want {
			t.Fatalf("after the reset add(%d) = %v, want %v", i, got, want)
		}
	}
}
