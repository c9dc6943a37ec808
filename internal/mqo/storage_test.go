package mqo

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// newsPair is the Fig. 2 query with two articles: both mention keyword k
// and are located at l, a self-join whose halves are automorphic.
func newsPair(name string, window time.Duration, articles int) *query.Graph {
	b := query.NewBuilder(name).Window(window).Vertex("k", "Keyword").Vertex("l", "Location")
	for i := 1; i <= articles; i++ {
		a := fmt.Sprintf("a%d", i)
		b.Vertex(a, "Article").Edge(a, "k", "mentions").Edge(a, "l", "located")
	}
	return b.MustBuild()
}

// untidy makes a stream what internal/gen's randomWorkload makes it: pairs
// of edges share a timestamp and one edge in six arrives late, within slack.
func untidy(rng *rand.Rand, i int, gap, slack time.Duration) graph.Timestamp {
	at := graph.TimestampFromTime(time.Unix(50_000, 0)).Add(time.Duration(i/2) * 2 * gap)
	if rng.Intn(6) == 0 {
		at = at.Add(-time.Duration(rng.Int63n(int64(slack))))
	}
	return at
}

// hostStream is randomWorkload's stream: 24 hosts, three edge types, one
// edge in eight parallel to the one before it.
func hostStream(seed int64, slack time.Duration) []graph.StreamEdge {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"flow", "dns", "login"}
	var out []graph.StreamEdge
	for i := 0; i < 600; i++ {
		src, dst := graph.VertexID(rng.Intn(24)+1), graph.VertexID(rng.Intn(24)+1)
		if dst == src {
			dst = src%24 + 1
		}
		if i > 0 && rng.Intn(8) == 0 {
			src, dst = out[i-1].Edge.Source, out[i-1].Edge.Target
		}
		out = append(out, hostEdge(graph.EdgeID(i+1), src, dst, types[rng.Intn(3)], untidy(rng, i, 40*time.Millisecond, slack)))
	}
	return out
}

// newsStream has each new article mention one of four keywords and sit at
// one of three locations, the two edges in either order.
func newsStream(seed int64, slack time.Duration) []graph.StreamEdge {
	rng := rand.New(rand.NewSource(seed))
	var out []graph.StreamEdge
	for i := 0; len(out) < 600; i++ {
		article := graph.VertexID(1000 + i)
		pair := []graph.StreamEdge{
			{Edge: graph.Edge{Source: article, Target: graph.VertexID(1 + rng.Intn(4)), Type: "mentions"}, SourceType: "Article", TargetType: "Keyword"},
			{Edge: graph.Edge{Source: article, Target: graph.VertexID(10 + rng.Intn(3)), Type: "located"}, SourceType: "Article", TargetType: "Location"},
		}
		if rng.Intn(2) == 0 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		for _, se := range pair {
			se.Edge.ID = graph.EdgeID(len(out) + 1)
			se.Edge.Timestamp = untidy(rng, len(out), 40*time.Millisecond, slack)
			out = append(out, se)
		}
	}
	return out
}

// hostQueries are randomWorkload's chain, fan-out, cycle, window-less wedge
// and its two queries reading a flow in either direction, and three queries
// with parallel edges: two flows between one pair of hosts, a flow beside a
// dns edge, and two flows in either direction.
func hostQueries() []*query.Graph {
	hosts := func(name string, window time.Duration, vars ...string) *query.Builder {
		b := query.NewBuilder(name).Window(window)
		for _, v := range vars {
			b.Vertex(v, "Host")
		}
		return b
	}
	return []*query.Graph{
		hosts("chain", time.Second, "a", "b", "c", "d").Edge("a", "b", "flow").Edge("b", "c", "dns").Edge("c", "d", "login").MustBuild(),
		hosts("fan", 1500*time.Millisecond, "s", "x", "y", "z").Edge("s", "x", "login").Edge("s", "y", "flow").Edge("s", "z", "flow").MustBuild(),
		hosts("cycle", 2*time.Second, "a", "b", "c").Edge("a", "b", "flow").Edge("b", "c", "flow").Edge("c", "a", "dns").MustBuild(),
		hosts("wedge", 0, "a", "b", "c").Edge("a", "b", "login").Edge("b", "c", "dns").MustBuild(),
		hosts("peers", time.Second, "a", "b").UndirectedEdge("a", "b", "flow").MustBuild(),
		hosts("relay", time.Second, "a", "b", "c").UndirectedEdge("a", "b", "flow").Edge("b", "c", "login").MustBuild(),
		hosts("twoflows", time.Second, "a", "b", "c").Edge("a", "b", "flow").Edge("a", "b", "flow").Edge("b", "c", "login").MustBuild(),
		hosts("flowdns", time.Second, "a", "b").Edge("a", "b", "flow").Edge("a", "b", "dns").MustBuild(),
		hosts("peerpair", time.Second, "a", "b").UndirectedEdge("a", "b", "flow").UndirectedEdge("a", "b", "flow").MustBuild(),
	}
}

// TestLiveDerivationIsDuplicateFree is the ground for storing rows without
// a dedup table: while an edge is processed no node derives a row it holds
// — every new leaf row binds the arriving edge, a join probes each pair
// once, and a parent row determines the pair it came from — and no query is
// sent a match twice. A row derived while an edge is processed binds that
// edge, so it can repeat only a row derived for the same edge: after each
// edge, each node's new rows are checked for a repeated edge set (a
// repeated binding where the fragment is mirrored, whose row and mirror
// bind the same edges), and every delivery for a repeated signature. The
// streams are randomWorkload-like ones of hosts and of news articles
// (self-joins of two and three articles), with parallel edges in stream and
// query, undirected query edges and lateness within the slack, under every
// plan strategy, swept every four edges as the engine sweeps.
func TestLiveDerivationIsDuplicateFree(t *testing.T) {
	const retention, slack = 2 * time.Second, 100 * time.Millisecond
	for seed := int64(1); seed <= 4; seed++ {
		for _, set := range []struct {
			name    string
			edges   []graph.StreamEdge
			queries []*query.Graph
		}{
			{"hosts", hostStream(seed, slack), hostQueries()},
			{"news", newsStream(seed, slack), []*query.Graph{newsPair("news2", time.Second, 2), newsPair("news3", 0, 3)}},
		} {
			for _, strat := range decompose.Strategies() {
				t.Run(fmt.Sprintf("%s-%d/%s", set.name, seed, strat), func(t *testing.T) {
					dyn := graph.NewDynamic(retention, graph.WithSlack(slack))
					d := New(dyn)
					sent := map[string]bool{}
					for _, q := range set.queries {
						if _, err := d.Attach(q.Name(), q, planWith(t, q, strat), AttachOptions{
							EmitSigned: func(_ *match.Match, sig string) {
								if sent[q.Name()+" "+sig] {
									t.Fatalf("%s was sent %s twice", q.Name(), sig)
								}
								sent[q.Name()+" "+sig] = true
							},
						}); err != nil {
							t.Fatal(err)
						}
					}
					held := map[*node]int{}
					for i, se := range set.edges {
						for _, n := range d.nodes {
							held[n] = n.rows.len()
						}
						if de, err := dyn.Apply(se); err == nil {
							d.ProcessEdge(de)
						}
						for _, n := range d.nodes {
							derived := map[string]bool{}
							for r := held[n]; r < n.rows.len(); r++ {
								row := n.rows.row(r)
								key := fmt.Sprint(n.rows.edges(row))
								if n.mirrored {
									key = fmt.Sprint(n.rows.binding(row))
								}
								if derived[key] {
									t.Fatalf("edge %d: a %d-edge node derived %s twice", i, n.frag.Graph.NumEdges(), key)
								}
								derived[key] = true
							}
						}
						if i%4 == 3 {
							d.Prune(dyn.Watermark(), nil)
						}
					}
					joined := uint64(0)
					for _, n := range d.nodes {
						joined += n.joinHits
					}
					if joined < 50 || len(sent) < 50 {
						t.Fatalf("vacuous: %d rows joined, %d matches sent", joined, len(sent))
					}
				})
			}
		}
	}
}

// TestWindowlessRootIsBounded: under retention 0, where a window-less
// query's nodes keep everything, its root keeps nothing: a join root and a
// single-leaf root both deliver every completion and hold no row, while
// the leaves below the join hold the partials it reads.
func TestWindowlessRootIsBounded(t *testing.T) {
	const completions = 300
	for _, strat := range []decompose.Strategy{decompose.StrategyEager, decompose.StrategySelective} {
		t.Run(string(strat), func(t *testing.T) {
			dyn := graph.NewDynamic(0)
			d := New(dyn)
			q := smurf("s", 0)
			sent := 0
			att, err := d.Attach("s", q, planWith(t, q, strat), AttachOptions{Emit: func(*match.Match) { sent++ }})
			if err != nil {
				t.Fatal(err)
			}
			base := graph.TimestampFromTime(time.Unix(7000, 0))
			for i := 0; i < completions; i++ {
				v, at := graph.VertexID(10*i), base.Add(time.Duration(i)*time.Hour)
				feed(t, dyn, d, []graph.StreamEdge{
					hostEdge(graph.EdgeID(2*i+1), v+1, v+2, "icmp_echo_req", at),
					hostEdge(graph.EdgeID(2*i+2), v+2, v+3, "icmp_echo_reply", at.Add(time.Second)),
				})
				if i%64 == 0 {
					d.Prune(dyn.Watermark(), nil)
				}
			}
			leafRows := 0
			if att.root.left != nil {
				leafRows = 2 * completions
			}
			if sent != completions || att.root.rows.len() != 0 || d.PartialMatches() != leafRows {
				t.Fatalf("%d completions: %d sent, the root holds %d rows, the DAG %d (want %d)", completions, sent, att.root.rows.len(), d.PartialMatches(), leafRows)
			}
		})
	}
}

// TestParentlessRootAllocationBudget: a row derived at a root no join reads
// is delivered to its consumer group and forgotten: no row is stored and
// nothing allocated.
func TestParentlessRootAllocationBudget(t *testing.T) {
	d := New(graph.NewDynamic(0))
	q := smurf("s", 0)
	emitted := 0
	att, err := d.Attach("s", q, planWith(t, q, decompose.StrategyEager), AttachOptions{
		EmitSigned: func(*match.Match, string) { emitted++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	root := att.root
	if root.left == nil || len(root.parents) != 0 {
		t.Fatal("the root is not a parentless join")
	}
	rows := make([][]uint64, allocbudget.Runs+1) // one per call, built up front
	for i := range rows {
		rows[i] = rowFor(root,
			func(qv query.VertexID) uint64 { return uint64(10*i) + uint64(qv) },
			func(qe query.EdgeID) uint64 { return uint64(10*i) + uint64(qe) },
			graph.NewInterval(graph.Timestamp(i)))
	}
	next := 0
	allocbudget.Check(t, "mqo.insert/parentless root, delivered", func() {
		d.insert(root, rows[next])
		next++
	})
	if emitted != next || root.rows.len() != 0 {
		t.Fatalf("%d inserts: %d delivered, %d rows stored", next, emitted, root.rows.len())
	}
}

// BenchmarkDAGSharedRoot is one edge through a DAG whose 25 queries of one
// news2 shape, windows 200 ms apart up to 5 s, share its 4-edge root: a
// stream of articles, each mentioning one of ten keywords and located at the
// one place of ten that goes with it, 100 edges a second, swept every 1024
// edges like the engine.
func BenchmarkDAGSharedRoot(b *testing.B) {
	dyn := graph.NewDynamic(10 * time.Second)
	d := New(dyn)
	delivered := 0
	for i := 0; i < 25; i++ {
		q := newsPair(fmt.Sprintf("n%02d", i), time.Duration(i+1)*200*time.Millisecond, 2)
		if _, err := d.Attach(q.Name(), q, planWith(b, q, decompose.StrategySelective), AttachOptions{
			EmitSigned: func(*match.Match, string) { delivered++ },
		}); err != nil {
			b.Fatal(err)
		}
	}
	base := graph.TimestampFromTime(time.Unix(60_000, 0))
	edge := func(i int) graph.StreamEdge {
		article, at := graph.VertexID(1000+i/2), base.Add(time.Duration(i)*10*time.Millisecond)
		se := graph.StreamEdge{Edge: graph.Edge{ID: graph.EdgeID(i + 1), Source: article, Timestamp: at}, SourceType: "Article"}
		if i%2 == 0 {
			se.Edge.Target, se.Edge.Type, se.TargetType = graph.VertexID(1+(i/2)%10), "mentions", "Keyword"
		} else {
			se.Edge.Target, se.Edge.Type, se.TargetType = graph.VertexID(100+(i/2*7)%10), "located", "Location"
		}
		return se
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		de, err := dyn.Apply(edge(i))
		if err != nil {
			b.Fatal(err)
		}
		d.ProcessEdge(de)
		if i%1024 == 1023 {
			d.Prune(dyn.Watermark(), nil)
		}
	}
	b.StopTimer()
	if b.N > 10_000 && delivered == 0 {
		b.Fatal("vacuous: nothing delivered")
	}
}
