package gen

import (
	"fmt"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/stream"
)

// variantFamily builds one structural family of generated query variants.
// tier lets a family vary predicates (not just windows) across its variants,
// so a many-queries workload exercises both full structural sharing (same
// signature, different windows) and predicate-split non-sharing (distinct
// signatures within one family).
type variantFamily struct {
	base  string
	build func(name string, window time.Duration, tier int) *query.Graph
}

// queryVariantFamilies are the base patterns QueryVariants cycles through:
// the netflow Fig. 3 suite plus dns/news shapes. Structure within a family is
// constant except where tier splits predicates, so hundreds of variants
// collapse to a handful of canonical subpattern signatures — the sharing the
// MQO DAG exists to exploit.
var queryVariantFamilies = []variantFamily{
	{"smurf", func(name string, w time.Duration, _ int) *query.Graph {
		return query.NewBuilder(name).
			Window(w).
			Vertex("attacker", TypeHost).
			Vertex("amplifier", TypeHost).
			Vertex("victim", TypeHost).
			Edge("attacker", "amplifier", EdgeICMPReq).
			Edge("amplifier", "victim", EdgeICMPReply).
			MustBuild()
	}},
	{"worm", func(name string, w time.Duration, _ int) *query.Graph {
		return query.NewBuilder(name).
			Window(w).
			Vertex("src", TypeHost).
			Vertex("dst", TypeHost).
			Edge("src", "dst", EdgeScan).
			Edge("src", "dst", EdgeFlow).
			Edge("src", "dst", EdgeInfect).
			MustBuild()
	}},
	{"worm-chain", func(name string, w time.Duration, _ int) *query.Graph {
		return query.NewBuilder(name).
			Window(w).
			Vertex("patient0", TypeHost).
			Vertex("victim1", TypeHost).
			Vertex("victim2", TypeHost).
			Edge("patient0", "victim1", EdgeInfect).
			Edge("victim1", "victim2", EdgeScan).
			Edge("victim1", "victim2", EdgeInfect).
			MustBuild()
	}},
	{"exfil", func(name string, w time.Duration, tier int) *query.Graph {
		// Predicate tiers: byte thresholds double per tier, so variants of
		// this family split into distinct canonical signatures — the DAG must
		// NOT share across tiers (different predicates, different matches).
		mult := int64(1) << (tier % 3)
		return query.NewBuilder(name).
			Window(w).
			Vertex("compromised", TypeHost).
			Vertex("fileserver", TypeHost).
			Vertex("drop", TypeHost).
			Edge("compromised", "fileserver", EdgeLogin).
			Edge("compromised", "fileserver", EdgeFileRead, query.Gt("bytes", graph.Int(1_000_000*mult))).
			Edge("compromised", "drop", EdgeFlow, query.Gt("bytes", graph.Int(10_000_000*mult))).
			MustBuild()
	}},
	{"probe", func(name string, w time.Duration, _ int) *query.Graph {
		// Shares its icmp_echo_req leg with the smurf family under
		// single-edge-leaf plans.
		return query.NewBuilder(name).
			Window(w).
			Vertex("scanner", TypeHost).
			Vertex("target", TypeHost).
			Vertex("resolver", "").
			Edge("scanner", "target", EdgeICMPReq).
			Edge("target", "resolver", EdgeDNS).
			MustBuild()
	}},
	{"scan-stage", func(name string, w time.Duration, _ int) *query.Graph {
		return query.NewBuilder(name).
			Window(w).
			Vertex("recon", TypeHost).
			Vertex("probed", "").
			Vertex("staging", "").
			Edge("recon", "probed", EdgeScan).
			Edge("recon", "staging", EdgeInfect).
			Edge("recon", "staging", EdgeFlow).
			MustBuild()
	}},
	{"news2", func(name string, w time.Duration, _ int) *query.Graph {
		return newsVariant(name, w, 2)
	}},
	{"news3", func(name string, w time.Duration, _ int) *query.Graph {
		return newsVariant(name, w, 3)
	}},
}

// newsVariant is NewsEventQuery under a caller-chosen name: articles sharing
// a keyword and a location within the window (news windows run long relative
// to netflow ones, so callers pass a stretched window for these families).
func newsVariant(name string, window time.Duration, articles int) *query.Graph {
	b := query.NewBuilder(name).Window(window)
	b.Vertex("k", TypeKeyword)
	b.Vertex("l", TypeLocation)
	for i := 0; i < articles; i++ {
		n := articleVar(i)
		b.Vertex(n, TypeArticle)
		b.Edge(n, "k", EdgeMentions)
		b.Edge(n, "l", EdgeLocated)
	}
	return b.MustBuild()
}

// QueryVariants generates n standing queries by cycling the variant families
// round-robin, jittering windows within a family (same structure, different
// window — fully shareable) and stepping predicate tiers every full cycle
// (structurally identical but semantically distinct — never shared). Names
// are "<family>-v<index>", unique across the set. This is the many-queries
// registration load: a realistic monitoring deployment runs hundreds of
// near-duplicate detection rules differing only in thresholds and windows.
func QueryVariants(n int, window time.Duration) []*query.Graph {
	out := make([]*query.Graph, 0, n)
	for i := 0; i < n; i++ {
		fam := queryVariantFamilies[i%len(queryVariantFamilies)]
		tier := i / len(queryVariantFamilies)
		w := window + time.Duration(tier%4)*window/8
		if fam.base == "news2" || fam.base == "news3" {
			// Articles arrive on a minutes-scale gap; a seconds-scale window
			// would never hold two of them.
			w *= 20
		}
		name := fmt.Sprintf("%s-v%03d", fam.base, i)
		out = append(out, fam.build(name, w, tier))
	}
	return out
}

// ManyQueriesWorkload builds the multi-query-optimization evaluation
// workload: the netflow background (attacks woven in) merged with a news
// article stream over one shared ID space, standing under `queries` generated
// query variants. With hundreds of registered variants one private plan per
// query would re-run near-identical local searches per edge once per query;
// the shared evaluation DAG runs each distinct subpattern once — this
// workload is where that difference is measured.
func ManyQueriesWorkload(cfg NetFlowConfig, newsCfg NewsConfig, window time.Duration, queries int) Workload {
	flow := NewNetFlow(cfg, nil)
	bg := flow.Generate()
	start := cfg.Start
	end := start
	if len(bg) > 0 {
		end = bg[len(bg)-1].Edge.Timestamp
	}
	inj := NewInjector(DefaultInjectorConfig(), flow.Hosts(), flow.Sequence())
	smurf, _ := inj.Inject(AttackSmurf, 3, start, end)
	worm, _ := inj.Inject(AttackWorm, 3, start, end)
	exfil, _ := inj.Inject(AttackExfiltration, 3, start, end)
	// The news generator continues the netflow ID sequence so the merged
	// stream keeps globally unique vertex and edge IDs.
	news := NewNews(newsCfg, flow.Sequence())
	articles, _ := news.Generate()
	return Workload{
		Name:    "many-queries",
		Edges:   stream.Merge(bg, smurf, worm, exfil, articles),
		Queries: QueryVariants(queries, window),
		Engine: core.Config{
			Retention:       window,
			EnableSummaries: true,
			TriadSampling:   10,
		},
	}
}

// BenchManyQueriesWorkload builds the canonical many-queries benchmark
// workload at the requested scale: netflow background plus a news stream
// sized to roughly an eighth of the netflow edge count, under the given
// number of generated query variants.
func BenchManyQueriesWorkload(queries, edges, hosts int, window time.Duration) Workload {
	cfg := NetFlowConfig{
		Hosts:       hosts,
		Servers:     hosts/16 + 4,
		Edges:       edges,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        47,
	}
	// The news side runs with a wide vocabulary: standing detection rules
	// are supposed to be mostly idle (matches are the rare event), so the
	// benchmark must not degenerate into measuring match fan-out — which
	// both modes pay identically — instead of per-edge evaluation.
	newsCfg := DefaultNewsConfig()
	newsCfg.Articles = max(edges/64, 40)
	newsCfg.Keywords = newsCfg.Articles + 50
	newsCfg.Locations = newsCfg.Articles/8 + 10
	newsCfg.EventClusters = max(newsCfg.Articles/100, 1)
	newsCfg.Gap = 500 * time.Millisecond
	newsCfg.Seed = 48
	return ManyQueriesWorkload(cfg, newsCfg, window, queries)
}
