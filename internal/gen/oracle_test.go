package gen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/mqo"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/sjtree"
	"github.com/streamworks/streamworks/internal/stats"
)

// randomWorkload is a small typed multigraph stream with the nastiness the
// generated workloads lack: parallel edges, runs of equal timestamps, edges
// arriving out of order within the slack, and windows short enough that the
// retention turns over many times. Its queries are a chain, a fan-out and a
// cycle (two cut vertices), each with its own window, a window-less wedge,
// whose window is the retention, and two that read a flow in either
// direction: peers, that one undirected edge, which local search finds once
// per orientation and must be sent once, and relay, which joins it to a
// login on either of its hosts. The engine sweeps every four edges, so a
// partial the sweep should have dropped shows.
func randomWorkload(seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	const (
		vertices = 24
		edges    = 600
		gap      = 40 * time.Millisecond
		slack    = 100 * time.Millisecond
	)
	types := []string{"flow", "dns", "login"}
	start := graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))
	out := make([]graph.StreamEdge, 0, edges)
	var prev graph.StreamEdge
	for i := 0; i < edges; i++ {
		src := graph.VertexID(rng.Intn(vertices) + 1)
		dst := graph.VertexID(rng.Intn(vertices) + 1)
		if dst == src {
			dst = src%vertices + 1
		}
		if i > 0 && rng.Intn(8) == 0 {
			src, dst = prev.Edge.Source, prev.Edge.Target // a parallel edge
		}
		at := start.Add(time.Duration(i/2) * 2 * gap) // pairs share a timestamp
		if rng.Intn(6) == 0 {
			at = at.Add(-time.Duration(rng.Int63n(int64(slack)))) // late, within the slack
		}
		prev = graph.StreamEdge{
			Edge:       graph.Edge{ID: graph.EdgeID(i + 1), Source: src, Target: dst, Type: types[rng.Intn(len(types))], Timestamp: at},
			SourceType: "Host",
			TargetType: "Host",
		}
		out = append(out, prev)
	}
	chain := query.NewBuilder("chain").Window(time.Second).
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").Vertex("d", "Host").
		Edge("a", "b", "flow").Edge("b", "c", "dns").Edge("c", "d", "login").
		MustBuild()
	fan := query.NewBuilder("fan").Window(1500*time.Millisecond).
		Vertex("s", "Host").Vertex("x", "Host").Vertex("y", "Host").Vertex("z", "Host").
		Edge("s", "x", "login").Edge("s", "y", "flow").Edge("s", "z", "flow").
		MustBuild()
	cycle := query.NewBuilder("cycle").Window(2*time.Second).
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		Edge("a", "b", "flow").Edge("b", "c", "flow").Edge("c", "a", "dns").
		MustBuild()
	wedge := query.NewBuilder("wedge").
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		Edge("a", "b", "login").Edge("b", "c", "dns").
		MustBuild()
	peers := query.NewBuilder("peers").Window(time.Second).
		Vertex("a", "Host").Vertex("b", "Host").
		UndirectedEdge("a", "b", "flow").
		MustBuild()
	relay := query.NewBuilder("relay").Window(time.Second).
		Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
		UndirectedEdge("a", "b", "flow").Edge("b", "c", "login").
		MustBuild()
	return Workload{
		Name:    fmt.Sprintf("random-%d", seed),
		Edges:   out,
		Queries: []*query.Graph{chain, fan, cycle, wedge, peers, relay},
		Engine: core.Config{
			Retention:     2 * time.Second,
			Slack:         slack,
			PruneInterval: 4,
		},
	}
}

// straggle returns w with one edge in six moved back by up to behind, drawn
// from seed: those that land behind the watermark must be dropped on every
// plan and shard count alike.
func straggle(w Workload, seed int64, behind time.Duration) Workload {
	rng := rand.New(rand.NewSource(seed * 977))
	w.Edges = slices.Clone(w.Edges)
	for i := range w.Edges {
		if rng.Intn(6) == 0 {
			w.Edges[i].Edge.Timestamp = w.Edges[i].Edge.Timestamp.Add(-time.Duration(rng.Int63n(int64(behind))))
		}
	}
	return w
}

// TestRandomStreamsMatchOracle holds every engine configuration to the
// oracle on streams the generators never produce: each decomposition
// strategy on one engine and on two and three shards must deliver exactly
// the matches naive expansion finds. Each stream has stragglers up to twice
// the slack behind, and a 300-edge prefix of it runs again under unbounded
// retention with stragglers up to twenty slacks behind: an edge behind the
// watermark is late whatever the retention.
func TestRandomStreamsMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		w := randomWorkload(seed)
		unbounded := w
		unbounded.Name += "-unbounded"
		unbounded.Edges = w.Edges[:300]
		unbounded.Engine.Retention = 0
		for _, w := range []Workload{straggle(w, seed, 2*w.Engine.Slack), straggle(unbounded, seed, 20*w.Engine.Slack)} {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				ref := Oracle(w)
				if len(ref) == 0 {
					t.Fatalf("the oracle found no matches; the stream proves nothing")
				}
				for _, strat := range decompose.Strategies() {
					for _, shards := range []int{1, 2, 3} {
						t.Run(fmt.Sprintf("%s/shards=%d", strat, shards), func(t *testing.T) {
							w := w
							w.Register.Strategy = string(strat)
							var (
								set MatchSet
								err error
							)
							if shards == 1 {
								set, _, err = RunSingle(w)
							} else {
								set, _, err = RunSharded(w, shards)
							}
							if err != nil {
								t.Fatal(err)
							}
							if !set.Equal(ref) {
								t.Fatalf("%d matches, the oracle finds %d", len(set), len(ref))
							}
						})
					}
				}
			})
		}
	}
}

// TestLateRegistrationMatchesOracle: the first half of each workload's
// queries is registered before the stream and the rest a third of the way
// in. The early queries are sent all the oracle's matches; the late ones
// exactly those that complete after they registered — the edge that
// completes them arrives later — and none that completed before, whatever
// the strategy, each once. Late queries attach to plan nodes early ones
// built, some of them under narrower windows (the many-queries variants'
// windows step up with their tier); core's
// TestLateRegistrationBackfillsFromWindow covers such a node after it has
// pruned. Every query is then unregistered and registered again under
// another strategy twice, at half and at five sixths of the stream, which
// changes nothing the queries are sent.
// The retention is set to the widest query window up front, which mid-stream
// registration requires, and the engine sweeps every eight edges.
// randomWorkload's late half holds its undirected queries, so a backfill
// derives both rows of the mirrored leaf that relay's eager plan joins on
// either host.
func TestLateRegistrationMatchesOracle(t *testing.T) {
	for _, w := range []Workload{tinyNetflowWorkload(), tinyNewsWorkload(), tinyDriftWorkload(), tinyManyQueriesWorkload(), randomWorkload(1)} {
		for _, q := range w.Queries {
			w.Engine.Retention = max(w.Engine.Retention, q.Window())
		}
		split, half := len(w.Edges)/3, len(w.Queries)/2
		early, late, lateBefore := w, w, w
		early.Queries = w.Queries[:half]
		late.Queries = w.Queries[half:]
		lateBefore.Queries, lateBefore.Edges = late.Queries, w.Edges[:split]
		ref := Oracle(early)
		completedBefore := Oracle(lateBefore)
		for k := range Oracle(late) {
			if _, ok := completedBefore[k]; !ok {
				ref[k] = struct{}{}
			}
		}
		t.Run(w.Name, func(t *testing.T) {
			if len(ref) == 0 {
				t.Fatalf("the oracle finds nothing to send; the workload proves nothing")
			}
			for _, strat := range decompose.Strategies() {
				t.Run(string(strat), func(t *testing.T) {
					cfg := w.Engine
					cfg.PruneInterval = 8
					e := core.New(&cfg)
					register := func(qs []*query.Graph, s decompose.Strategy) {
						for _, q := range qs {
							if _, err := e.RegisterQuery(q, core.WithStrategy(s)); err != nil {
								t.Fatal(err)
							}
						}
					}
					// Each re-registration point moves every query one
					// strategy further from the one it registered with.
					strategies := decompose.Strategies()
					last := strategies[(slices.Index(strategies, strat)+2)%len(strategies)]
					moveAt := map[int]decompose.Strategy{
						len(w.Edges) / 2:     strategies[(slices.Index(strategies, strat)+1)%len(strategies)],
						len(w.Edges) * 5 / 6: last,
					}
					// A sink sees every delivery, registrations' included,
					// not only what ProcessEdge returns.
					got := make(MatchSet)
					e.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) {
						if !got.Add(ev) {
							t.Fatalf("%s sent %s twice", ev.Query, ev.CanonicalSignature())
						}
					}))
					register(early.Queries, strat)
					for i, se := range w.Edges {
						if i == split {
							register(late.Queries, strat)
						}
						if to, ok := moveAt[i]; ok {
							for _, q := range w.Queries {
								if err := e.UnregisterQuery(q.Name()); err != nil {
									t.Fatal(err)
								}
								register([]*query.Graph{q}, to)
							}
						}
						e.ProcessEdge(se)
					}
					for _, q := range w.Queries {
						if reg, _ := e.Registration(q.Name()); reg.Plan().Strategy != last {
							t.Fatalf("%s runs a %s plan, last registered %s", q.Name(), reg.Plan().Strategy, last)
						}
					}
					if !got.Equal(ref) {
						t.Fatalf("%d matches with %d queries registered at edge %d, the oracle finds %d", len(got), len(late.Queries), split, len(ref))
					}
				})
			}
		})
	}
}

// TestRootStorageFollowsParentLinks: a root keeps rows only while another
// node's join reads them. Query A, the chain's first two edges, runs alone
// on an eager plan whose root keeps nothing; a third of the way in the chain
// registers, and its eager plan reads A's root as a child, which derives its
// rows from the window then. The chain is sent exactly the oracle's matches
// completed while it was registered; once it unregisters, at two thirds,
// A's root holds no row again, and A is sent exactly the oracle's matches
// over the whole stream, as if the chain had never come.
func TestRootStorageFollowsParentLinks(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := randomWorkload(seed)
		chain := w.Queries[0]
		a := query.NewBuilder("flowdns").Window(chain.Window()).
			Vertex("a", "Host").Vertex("b", "Host").Vertex("c", "Host").
			Edge("a", "b", "flow").Edge("b", "c", "dns").
			MustBuild()
		from, to := len(w.Edges)/3, len(w.Edges)*2/3
		alone, chainTo, chainFrom := w, w, w
		alone.Queries = []*query.Graph{a}
		chainTo.Queries, chainTo.Edges = []*query.Graph{chain}, w.Edges[:to]
		chainFrom.Queries, chainFrom.Edges = []*query.Graph{chain}, w.Edges[:from]
		ref := Oracle(alone)
		owedA := len(ref)
		completedBefore := Oracle(chainFrom)
		for k := range Oracle(chainTo) {
			if _, ok := completedBefore[k]; !ok {
				ref[k] = struct{}{}
			}
		}
		t.Run(w.Name, func(t *testing.T) {
			if owedA == 0 || len(ref) == owedA {
				t.Fatalf("vacuous: the oracle owes A %d matches and the chain %d", owedA, len(ref)-owedA)
			}
			e := core.New(&w.Engine)
			got := make(MatchSet)
			e.Subscribe("", core.MatchSinkFunc(func(ev core.MatchEvent) {
				if !got.Add(ev) {
					t.Fatalf("%s sent %s twice", ev.Query, ev.CanonicalSignature())
				}
			}))
			if _, err := e.RegisterQuery(a, core.WithStrategy(decompose.StrategyEager)); err != nil {
				t.Fatal(err)
			}
			var root string
			for _, ns := range e.Metrics().MQO.PerNode {
				if ns.Consumers == 1 {
					root = ns.Sig
				}
			}
			rootNode := func() mqo.NodeStats {
				for _, ns := range e.Metrics().MQO.PerNode {
					if ns.Sig == root {
						return ns
					}
				}
				t.Fatalf("A's root %s is gone", root)
				return mqo.NodeStats{}
			}
			read := 0
			for i, se := range w.Edges {
				switch i {
				case from:
					if _, err := e.RegisterQuery(chain, core.WithStrategy(decompose.StrategyEager)); err != nil {
						t.Fatal(err)
					}
					if ns := rootNode(); ns.Refs != 2 {
						t.Fatalf("the chain's plan does not read A's root: %d refs", ns.Refs)
					}
				case to:
					if err := e.UnregisterQuery(chain.Name()); err != nil {
						t.Fatal(err)
					}
				}
				if ns := rootNode(); from <= i && i < to {
					read = max(read, ns.Stored)
				} else if ns.Stored != 0 {
					t.Fatalf("edge %d: A's root holds %d rows with no parent", i, ns.Stored)
				}
				e.ProcessEdge(se)
			}
			if read == 0 {
				t.Fatal("vacuous: A's root never held a row while the chain read it")
			}
			if !got.Equal(ref) {
				t.Fatalf("%d matches, the oracle finds %d", len(got), len(ref))
			}
		})
	}
}

// TestPrivateTreesMatchOracle holds the single-query reference, a private
// SJ-Tree per query (internal/sjtree), to the oracle on randomWorkload's
// undirected queries under every strategy: a local search per leaf the
// arriving edge can seed, every primitive match inserted, the tree swept by
// its window. Local search finds the one flow of peers and relay in both
// orientations; relay's eager plan joins that leaf on either host, so the
// tree must keep both rows of it.
func TestPrivateTreesMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := randomWorkload(seed)
		w.Queries = slices.DeleteFunc(w.Queries, func(q *query.Graph) bool {
			return q.Name() != "peers" && q.Name() != "relay"
		})
		for _, q := range w.Queries {
			one := w
			one.Queries = []*query.Graph{q}
			ref := Oracle(one)
			if len(ref) == 0 {
				t.Fatalf("%s: the oracle finds no %s match; the stream proves nothing", w.Name, q.Name())
			}
			for _, strat := range decompose.Strategies() {
				t.Run(fmt.Sprintf("%s/%s/%s", w.Name, q.Name(), strat), func(t *testing.T) {
					plan, err := decompose.NewPlanner(stats.NewEstimator(nil)).Plan(q, strat)
					if err != nil {
						t.Fatal(err)
					}
					tree, err := sjtree.New(plan)
					if err != nil {
						t.Fatal(err)
					}
					matcher := isomorphism.New(q)
					dyn := graph.NewDynamic(max(w.Engine.Retention, q.Window()), graph.WithSlack(w.Engine.Slack))
					got := make(MatchSet)
					for i, se := range w.Edges {
						de, err := dyn.Apply(se)
						if err != nil {
							continue // late or duplicate, as the engine drops it
						}
						for _, leaf := range tree.Leaves() {
							for _, qe := range leaf.Edges() {
								if !q.Edge(qe).MatchesEdge(de) {
									continue
								}
								order := matcher.ConnectedOrder(leaf.Edges(), qe)
								for _, pm := range matcher.LocalSearchInto(nil, dyn.Graph(), order, de) {
									for _, cm := range tree.Insert(leaf, pm) {
										if !got.AddKey(q.Name(), cm.Signature()) {
											t.Fatalf("the tree emitted %s twice", cm.Signature())
										}
									}
								}
							}
						}
						if (i+1)%w.Engine.PruneInterval == 0 {
							tree.Prune(dyn.Watermark() - graph.Timestamp(q.Window()))
						}
					}
					if !got.Equal(ref) {
						t.Fatalf("%d matches, the oracle finds %d", len(got), len(ref))
					}
				})
			}
		}
	}
}
