package sjtree

import (
	"math/rand"
	"testing"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// randomBinding binds a random subset of up to `edges` pattern edges to data
// edges from a small ID space, so independent draws often repeat a binding.
func randomBinding(rng *rand.Rand, edges, ids int) *match.Match {
	m := match.NewSized(0, edges)
	for qe := 0; qe < edges; qe++ {
		if rng.Intn(4) > 0 {
			m.BindEdge(query.EdgeID(qe), graph.EdgeID(rng.Intn(ids)), 0)
		}
	}
	return m
}

// TestCompleteSetAgainstMapReference: under random adds the table accepts
// exactly what a map keyed on the canonical signature accepts — with the
// real hash and with every entry forced onto one 64-bit hash, where only
// the stored words can tell bindings apart.
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
			for i := 0; i < 3000; i++ {
				m := randomBinding(rng, 1+rng.Intn(12), 3)
				sig := m.Signature()
				if got, want := set.addHashed(hash(m), m), !ref[sig]; got != want {
					t.Fatalf("add #%d of %q = %v, reference says %v", i, sig, got, want)
				}
				ref[sig] = true
			}
			if set.n != len(ref) {
				t.Fatalf("set holds %d entries, reference %d", set.n, len(ref))
			}
		})
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
	if len(set.chunks) < 10 {
		t.Fatalf("only %d chunks after %d entries", len(set.chunks), n)
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

// TestInheritEmittedHandsOverTheSet: a replacement tree that inherits its
// predecessor's emitted set drops the matches the old tree already
// reported, and still reports new ones.
func TestInheritEmittedHandsOverTheSet(t *testing.T) {
	q := smurfQuery(0)
	old := mustTree(t, q, decompose.StrategyEager)
	const n = 5000 // several arena chunks
	complete := func(tr *Tree, i int) int {
		base := graph.VertexID(10 * i)
		req := reqMatch(base, base+1, graph.EdgeID(2*i), 1)
		return len(tr.Insert(tr.Root(), req.Join(replyMatch(base+1, base+2, graph.EdgeID(2*i+1), 2))))
	}
	for i := 0; i < n; i++ {
		if complete(old, i) != 1 {
			t.Fatalf("old tree missed match %d", i)
		}
	}
	repl := mustTree(t, q, decompose.StrategyLazy)
	repl.InheritEmitted(old)
	for i := 0; i < n; i++ {
		if complete(repl, i) != 0 {
			t.Fatalf("replacement re-emitted match %d", i)
		}
	}
	if complete(repl, n) != 1 || repl.CompleteCount() != n+1 {
		t.Fatalf("replacement lost a new match: CompleteCount = %d", repl.CompleteCount())
	}
}

// TestEmittedSetAddAllocationBudget: recording a fresh emission allocates
// nothing, amortised over table doublings and arena chunks.
func TestEmittedSetAddAllocationBudget(t *testing.T) {
	set := NewEmittedSet()
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
