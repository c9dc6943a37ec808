package stats_test

// Property tests for the cardinality estimator, the input every planning
// and re-planning decision rests on: estimates must be finite and
// non-negative for arbitrary query graphs over arbitrary observed streams,
// and monotone non-increasing as predicates are added (a predicate can only
// filter). Queries are randomized over the netflow corpus's vocabulary and
// the summary is seeded from a real generated stream.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stats"
)

var (
	propVertexTypes = []string{gen.TypeHost, gen.TypeServer, ""}
	propEdgeTypes   = []string{
		gen.EdgeFlow, gen.EdgeDNS, gen.EdgeLogin, gen.EdgeICMPReq,
		gen.EdgeICMPReply, gen.EdgeScan, gen.EdgeInfect, "",
	}
	propAttrs = []string{"bytes", "port", "user", "qname"}
)

// corpusSummary observes a small drift-workload stream (it contains every
// edge type, including the scan/infect regime) through a window of the
// workload's retention into a fresh summary, and returns the window too.
func corpusSummary(tb testing.TB) (*stats.Summary, *graph.Dynamic) {
	tb.Helper()
	w := gen.BenchDriftWorkload(4000, 200, 10*time.Second)
	dyn := graph.NewDynamic(w.Engine.Retention)
	s := stats.NewSummary(stats.WithTriadSampling(5))
	for _, se := range w.Edges {
		if _, err := dyn.Apply(se); err != nil {
			tb.Fatal(err)
		}
		s.Observe(se, dyn.Graph())
		s.Expire(dyn.Cutoff(), dyn.Window())
	}
	return s, dyn
}

// randPredicate builds one attribute predicate.
func randPredicate(rng *rand.Rand) query.Predicate {
	attr := propAttrs[rng.Intn(len(propAttrs))]
	switch rng.Intn(3) {
	case 0:
		return query.Eq(attr, graph.Int(int64(rng.Intn(1000))))
	case 1:
		return query.Gt(attr, graph.Int(int64(rng.Intn(1_000_000))))
	default:
		return query.Eq(attr, graph.String(fmt.Sprintf("v%d", rng.Intn(50))))
	}
}

// randQuery builds a random connected query graph of 2-6 edges: each new
// edge attaches to an existing vertex (keeping the graph connected, as the
// planner requires), with random types and a sprinkling of predicates.
// extra predicates (pre-built, so they consume none of rng's sequence and
// the structure stays identical with and without them) are attached to the
// first pattern edge.
func randQuery(rng *rand.Rand, extra []query.Predicate) *query.Graph {
	nv := 2 + rng.Intn(4)
	b := query.NewBuilder("prop")
	names := make([]string, nv)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		var preds []query.Predicate
		if rng.Intn(4) == 0 {
			preds = append(preds, randPredicate(rng))
		}
		b.Vertex(names[i], propVertexTypes[rng.Intn(len(propVertexTypes))], preds...)
	}
	ne := 2 + rng.Intn(5)
	for i := 0; i < ne; i++ {
		// Keep the pattern connected: source among already-touched
		// vertices, target anywhere.
		src := names[rng.Intn(min(max(i, 1), nv))]
		dst := names[rng.Intn(nv)]
		if src == dst {
			dst = names[(rng.Intn(nv)+1)%nv]
			if src == dst {
				dst = names[(rng.Intn(nv)+2)%nv]
			}
		}
		var preds []query.Predicate
		if i == 0 {
			preds = append(preds, extra...)
		}
		if rng.Intn(4) == 0 {
			preds = append(preds, randPredicate(rng))
		}
		b.Edge(src, dst, propEdgeTypes[rng.Intn(len(propEdgeTypes))], preds...)
	}
	q, err := b.Build()
	if err != nil {
		return nil
	}
	return q
}

func TestEstimatorCardinalityFiniteNonNegative(t *testing.T) {
	s, _ := corpusSummary(t)
	for _, est := range []*stats.Estimator{
		stats.NewEstimator(s),
		stats.NewEstimator(nil),
	} {
		rng := rand.New(rand.NewSource(991))
		for i := 0; i < 400; i++ {
			q := randQuery(rng, nil)
			if q == nil {
				continue
			}
			card := est.SubgraphCardinality(q, q.EdgeIDs())
			if math.IsNaN(card) || math.IsInf(card, 0) {
				t.Fatalf("iteration %d: cardinality not finite: %v\n%v", i, card, q)
			}
			if card < 0 {
				t.Fatalf("iteration %d: negative cardinality %v\n%v", i, card, q)
			}
			sel := est.Selectivity(q, q.EdgeIDs())
			if math.IsNaN(sel) || math.IsInf(sel, 0) || sel < 0 {
				t.Fatalf("iteration %d: bad selectivity %v", i, sel)
			}
			// Every subset of the edges must be estimable too (the planner
			// costs arbitrary primitives).
			ids := q.EdgeIDs()
			sub := ids[:1+rng.Intn(len(ids))]
			if c := est.SubgraphCardinality(q, sub); math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				t.Fatalf("iteration %d: bad subset cardinality %v", i, c)
			}
		}
	}
}

// TestEstimatorMonotoneInPredicates: the same query graph with strictly
// more predicates can never have a larger estimated cardinality — a
// predicate filters candidates, it cannot create them. The pair (q0, q1)
// is the same random structure built with 0 and then k extra predicates on
// the first pattern edge.
func TestEstimatorMonotoneInPredicates(t *testing.T) {
	s, _ := corpusSummary(t)
	est := stats.NewEstimator(s)
	const eps = 1e-9
	for seed := int64(0); seed < 300; seed++ {
		for k := 1; k <= 3; k++ {
			predRng := rand.New(rand.NewSource(seed + 100_000))
			extra := make([]query.Predicate, k)
			for i := range extra {
				extra[i] = randPredicate(predRng)
			}
			q0 := randQuery(rand.New(rand.NewSource(seed)), nil)
			qk := randQuery(rand.New(rand.NewSource(seed)), extra)
			if q0 == nil || qk == nil {
				continue
			}
			c0 := est.SubgraphCardinality(q0, q0.EdgeIDs())
			ck := est.SubgraphCardinality(qk, qk.EdgeIDs())
			if ck > c0+eps {
				t.Fatalf("seed %d: adding %d predicates increased the estimate: %v -> %v\nbefore: %v\nafter: %v",
					seed, k, c0, ck, q0, qk)
			}
		}
	}
}

// TestEstimatorReadsTheWindow: the estimator's single-edge cardinalities are
// the live window's counts, verbatim — after the mix has rotated, what the
// planner sees is the scan-heavy regime, not the whole stream's average.
func TestEstimatorReadsTheWindow(t *testing.T) {
	s, dyn := corpusSummary(t)
	est := stats.NewEstimator(s)
	g := dyn.Graph()
	for _, typ := range propEdgeTypes[:len(propEdgeTypes)-1] {
		if got, want := est.EdgeCardinality(&query.Edge{Type: typ}), float64(max(g.CountEdgesOfType(typ), 1)); got != want {
			t.Errorf("EdgeCardinality(%s) = %v, want live count %v", typ, got, want)
		}
	}
	if got, want := est.VertexCardinality(&query.Vertex{}), float64(g.NumVertices()); got != want {
		t.Errorf("VertexCardinality(untyped) = %v, want live count %v", got, want)
	}
}
