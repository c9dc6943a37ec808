package sjtree

import (
	"math/rand"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// Stream time in the set tests: data edge id was stamped id ticks in, so a
// binding fixes its Span.Start, and the retention is 400 ticks.
const (
	tick          = graph.Timestamp(time.Millisecond)
	testRetention = 400 * time.Millisecond
)

// bindingAt binds a random subset of up to `edges` pattern edges to data
// edges stamped within `spread` ticks before now — a small ID space, so
// independent draws often repeat a binding.
func bindingAt(rng *rand.Rand, edges, now, spread int) *match.Match {
	m := match.NewSized(0, edges)
	for qe := 0; qe < edges; qe++ {
		if qe == 0 || rng.Intn(4) > 0 {
			id := max(now-rng.Intn(spread), 0)
			m.BindEdge(query.EdgeID(qe), graph.EdgeID(id), graph.Timestamp(id)*tick)
		}
	}
	return m
}

// TestCompleteSetAgainstMapReference: under random interleavings of add and
// advance-cutoff, the generational set accepts exactly what a map from
// binding to Span.Start accepts for every binding that starts at or above
// the cutoff — with the real hash and with entries forced onto one or
// sixteen 64-bit hashes, where only the stored words can tell bindings
// apart. Bindings arrive out of order within a slack, a few are wider than
// an arena chunk, and the cutoff crosses whole retentions with nothing added
// (generations come due for sealing while empty).
func TestCompleteSetAgainstMapReference(t *testing.T) {
	for name, hash := range map[string]func(*match.Match) uint64{
		"real hash":    (*match.Match).EdgeSetHash,
		"one hash":     func(*match.Match) uint64 { return 42 },
		"sixteen hash": func(m *match.Match) uint64 { return m.EdgeSetHash() & 15 << 60 },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			const slack = 30 // ticks
			var set completeSet
			ref := map[string]graph.Timestamp{}
			cutoff := graph.NoCutoff
			now, sealed, maxGens, evicted := 0, 0, 0, 0
			for i := 0; i < 6000; i++ {
				switch r := rng.Intn(100); {
				case r < 70:
					m := bindingAt(rng, 1+rng.Intn(12), now, slack)
					if r == 0 && i%7 == 0 {
						m = bindingAt(rng, 1<<arenaChunkBits+5, now, slack)
					}
					sig, got := m.Signature(), set.addHashed(hash(m), m)
					if _, known := ref[sig]; m.Span.Start >= cutoff && got == known {
						t.Fatalf("op %d: add of %q (start %d, cutoff %d) = %v, reference knows it: %v", i, sig, m.Span.Start, cutoff, got, known)
					}
					ref[sig] = m.Span.Start
				case r < 97:
					now += rng.Intn(40)
				default:
					now += 2 * int(testRetention/time.Millisecond) // a quiet stretch
				}
				if i%16 == 0 {
					cutoff = graph.ExpiryCutoff(cutoff, graph.Timestamp(now)*tick, testRetention, slack*time.Millisecond)
					before := len(set.gens)
					evicted += set.expire(cutoff, testRetention)
					if len(set.gens) > before {
						sealed++
					}
					maxGens = max(maxGens, len(set.gens))
				}
			}
			live := 0
			for sig, start := range ref {
				if start >= cutoff {
					live++
				}
				delete(ref, sig)
			}
			if set.n < live {
				t.Fatalf("set holds %d entries, %d of the reference's are live", set.n, live)
			}
			if sealed < 10 || maxGens > 2+sealsPerRetention {
				t.Fatalf("%d generations sealed, %d alive at once: the ring did not turn as designed", sealed, maxGens)
			}
			// Two more steps of the cutoff past everything: one seals the open
			// generation, the next finds it dead.
			for _, far := range []int{now + 10_000, now + 20_000} {
				evicted += set.expire(graph.Timestamp(far)*tick, testRetention)
			}
			if set.n != 0 || len(set.gens) != 1 || evicted == 0 {
				t.Fatalf("after the cutoff passed everything: %d entries in %d generations, %d evicted", set.n, len(set.gens), evicted)
			}
		})
	}
}

// TestCompleteSetKeepsEverythingWithoutRetention: under unbounded retention
// the cutoff never leaves its floor, nothing is sealed and nothing evicted.
func TestCompleteSetKeepsEverythingWithoutRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var set completeSet
	cutoff, added := graph.NoCutoff, 0
	for now := 0; now < 5000; now++ {
		if set.add(bindingAt(rng, 3, now, 50)) {
			added++
		}
		cutoff = graph.ExpiryCutoff(cutoff, graph.Timestamp(now)*tick, 0, 0)
		if evicted := set.expire(cutoff, 0); evicted != 0 {
			t.Fatalf("%d entries evicted at %d", evicted, now)
		}
	}
	if cutoff != graph.NoCutoff || set.n != added || len(set.gens) != 1 {
		t.Fatalf("cutoff %d, %d of %d entries in %d generations", cutoff, set.n, added, len(set.gens))
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
	if chunks := len(set.gens[0].chunks); chunks < 10 {
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
		for _, c := range set.gens[0].chunks {
			stored, capacity = stored+len(c), capacity+cap(c)
		}
		if stored >= 16<<arenaFirstBits && 3*capacity > 4*stored {
			t.Fatalf("after %d entries the arena holds %d words in %d of capacity", i+1, stored, capacity)
		}
	}
}

// TestMergeHandsOverAMultiChunkSet: a fresh set merged from a predecessor
// holding several arena chunks of entries — what a query carries when a plan
// swap moves it to another consumer group — rejects every match the
// predecessor holds and still admits new ones, whose tree is of another
// plan.
func TestMergeHandsOverAMultiChunkSet(t *testing.T) {
	q := smurfQuery(0)
	old := mustTree(t, q, decompose.StrategyEager)
	const n = 5000 // several arena chunks
	completeMatch := func(i int) *match.Match {
		base := graph.VertexID(10 * i)
		req := reqMatch(base, base+1, graph.EdgeID(2*i), 1)
		return req.Join(replyMatch(base+1, base+2, graph.EdgeID(2*i+1), 2))
	}
	sent := NewEmittedSet()
	for i := 0; i < n; i++ {
		out := old.Insert(old.Root(), completeMatch(i))
		if len(out) != 1 || !sent.Add(out[0]) {
			t.Fatalf("old tree missed match %d", i)
		}
	}
	handed := NewEmittedSet()
	handed.Merge(sent)
	repl := mustTree(t, q, decompose.StrategyLazy)
	for i := 0; i <= n; i++ {
		out := repl.Insert(repl.Root(), completeMatch(i))
		if len(out) != 1 {
			t.Fatalf("replacement tree missed match %d", i)
		}
		if fresh := handed.Add(out[0]); fresh != (i == n) {
			t.Fatalf("match %d: Add = %v after the hand-over", i, fresh)
		}
	}
	if handed.Len() != n+1 {
		t.Fatalf("handed-over set holds %d entries, want %d", handed.Len(), n+1)
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

// TestEmittedSetSteadyStateEvictionAllocatesNothing: once the ring has turned
// a few times, adding fresh matches and expiring old ones runs on recycled
// tables and chunks — no allocation per step, and none at all over whole
// retentions of steps.
func TestEmittedSetSteadyStateEvictionAllocatesNothing(t *testing.T) {
	const (
		perStep = 64
		warmUp  = 300 // steps; a retention is 40
		step    = testRetention / 40
	)
	steps := warmUp + allocbudget.Runs + 1 + 200
	fresh := make([]*match.Match, steps*perStep) // built up front
	for i := range fresh {
		fresh[i] = match.NewSized(0, 3)
		ts := graph.Timestamp(i/perStep) * graph.Timestamp(step)
		for qe := 0; qe < 3; qe++ {
			fresh[i].BindEdge(query.EdgeID(qe), graph.EdgeID(3*i+qe), ts)
		}
	}
	set := NewEmittedSet()
	cutoff, next, evicted := graph.NoCutoff, 0, 0
	advance := func() {
		for _, m := range fresh[next*perStep : (next+1)*perStep] {
			if !set.Add(m) {
				t.Fatal("fresh binding rejected")
			}
		}
		cutoff = graph.ExpiryCutoff(cutoff, graph.Timestamp(next)*graph.Timestamp(step), testRetention, 0)
		evicted += set.Expire(cutoff, testRetention)
		next++
	}
	for next < warmUp {
		advance()
	}
	allocbudget.Check(t, "sjtree.EmittedSet evict/steady-state", advance)
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 99; i++ { // AllocsPerRun calls it twice
			advance()
		}
	}); allocs != 0 {
		t.Errorf("%.0f allocations over 2.5 retentions of steady-state turnover, want none", allocs)
	}
	if held, bound := set.Len(), perStep*40*(sealsPerRetention+1)/sealsPerRetention+2*perStep; held > bound || evicted == 0 {
		t.Errorf("set holds %d entries, bound %d; %d evicted", held, bound, evicted)
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

// TestEmittedSetMerge: merging adds exactly what the receiver lacks, leaves
// the source as it was and sharing nothing with the receiver, and keeps
// entries until their own window has passed: merged into an empty set, a
// ring of generations expires on the source's schedule; merged into a live
// one, no entry goes before the source would have dropped it.
func TestEmittedSetMerge(t *testing.T) {
	const perStep, steps = 16, 60 // a retention is 40 steps
	step := testRetention / 40
	bind := func(i int) *match.Match {
		m := match.NewSized(0, 2)
		m.BindEdge(0, graph.EdgeID(i), graph.Timestamp(i/perStep)*graph.Timestamp(step))
		return m
	}
	// src sees every match, dst only every third, both expired in step.
	src, dst := NewEmittedSet(), NewEmittedSet()
	cutoff := graph.NoCutoff
	for s := 0; s < steps; s++ {
		for i := s * perStep; i < (s+1)*perStep; i++ {
			src.Add(bind(i))
			if i%3 == 0 {
				dst.Add(bind(i))
			}
		}
		cutoff = graph.ExpiryCutoff(cutoff, graph.Timestamp(s)*graph.Timestamp(step), testRetention, 0)
		src.Expire(cutoff, testRetention)
		dst.Expire(cutoff, testRetention)
	}
	if len(src.set.gens) < 4 {
		t.Fatalf("source has %d generations: the merge has no ring to carry over", len(src.set.gens))
	}
	srcLen, dstLen := src.Len(), dst.Len()
	clone := NewEmittedSet()
	clone.Merge(src)
	dst.Merge(src)
	if clone.Len() != srcLen || dst.Len() != srcLen || src.Len() != srcLen || dstLen >= srcLen {
		t.Fatalf("after merging %d entries: clone %d, live receiver %d (had %d), source %d", srcLen, clone.Len(), dst.Len(), dstLen, src.Len())
	}
	if len(clone.set.gens) != len(src.set.gens) {
		t.Fatalf("clone has %d generations, source %d", len(clone.set.gens), len(src.set.gens))
	}
	// Everything at or above the cutoff is remembered by all three; a fresh
	// match added to one does not appear in the others.
	live := 0
	for i := 0; i < steps*perStep; i++ {
		if m := bind(i); m.Span.Start >= cutoff {
			live++
			if clone.Add(m) || dst.Add(m) || src.Add(m) {
				t.Fatalf("live match %d forgotten by a merge", i)
			}
		}
	}
	if live == 0 || !clone.Add(bind(steps*perStep)) || !dst.Add(bind(steps*perStep)) || !src.Add(bind(steps*perStep)) {
		t.Fatalf("%d live matches; the sets are not independent", live)
	}
	// Another retention and a quarter of stream time with nothing added:
	// everything merged must be gone from all three, on the same sweep or
	// within a generation of it.
	for s := steps; s < steps+50; s++ {
		cutoff = graph.ExpiryCutoff(cutoff, graph.Timestamp(s)*graph.Timestamp(step), testRetention, 0)
		for _, set := range []*EmittedSet{src, clone, dst} {
			set.Expire(cutoff, testRetention)
		}
		for i := 0; i < steps*perStep; i += 7 {
			if m := bind(i); m.Span.Start >= cutoff && (clone.Add(m) || dst.Add(m)) {
				t.Fatalf("step %d: match %d, still inside the window, was dropped", s, i)
			}
		}
	}
	if src.Len() > 1 || clone.Len() > 1 || dst.Len() > 1 {
		t.Fatalf("a retention later: source holds %d, clone %d, receiver %d", src.Len(), clone.Len(), dst.Len())
	}
}
