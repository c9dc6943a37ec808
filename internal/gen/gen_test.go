package gen

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/stream"
)

func TestSequenceUniqueIDs(t *testing.T) {
	s := &Sequence{}
	seenV := map[graph.VertexID]bool{}
	seenE := map[graph.EdgeID]bool{}
	for i := 0; i < 1000; i++ {
		v := s.NextVertex()
		e := s.NextEdge()
		if seenV[v] || seenE[e] {
			t.Fatalf("duplicate ID handed out")
		}
		seenV[v], seenE[e] = true, true
	}
	if v, e := s.NextVertex(), s.NextEdge(); v != 1001 || e != 1001 {
		t.Fatalf("after 1000 IDs each: next vertex %d, next edge %d, want 1001 and 1001", v, e)
	}
}

func TestNetFlowDeterministic(t *testing.T) {
	cfg := DefaultNetFlowConfig()
	cfg.Edges = 500
	a := NewNetFlow(cfg, nil).Generate()
	b := NewNetFlow(cfg, nil).Generate()
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("wrong edge counts: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Edge.ID != b[i].Edge.ID || a[i].Edge.Source != b[i].Edge.Source ||
			a[i].Edge.Type != b[i].Edge.Type || a[i].Edge.Timestamp != b[i].Edge.Timestamp {
			t.Fatalf("generator not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	cfg.Seed = 999
	c := NewNetFlow(cfg, nil).Generate()
	same := true
	for i := range a {
		if a[i].Edge.Source != c[i].Edge.Source || a[i].Edge.Target != c[i].Edge.Target {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestNetFlowStreamProperties(t *testing.T) {
	cfg := DefaultNetFlowConfig()
	cfg.Edges = 2000
	cfg.Hosts = 100
	cfg.Servers = 10
	g := NewNetFlow(cfg, nil)
	edges := g.Generate()
	if len(g.Hosts()) != 100 || len(g.Servers()) != 10 {
		t.Fatalf("population sizes wrong")
	}
	var last graph.Timestamp
	typeCounts := map[string]int{}
	for i, se := range edges {
		if se.Edge.Timestamp < last {
			t.Fatalf("timestamps not monotone at %d", i)
		}
		last = se.Edge.Timestamp
		if se.Edge.Source == se.Edge.Target {
			t.Fatalf("self loop generated at %d", i)
		}
		typeCounts[se.Edge.Type]++
		if se.Edge.ID == 0 {
			t.Fatalf("zero edge ID at %d", i)
		}
	}
	if typeCounts[EdgeFlow] == 0 || typeCounts[EdgeDNS] == 0 || typeCounts[EdgeICMPReq] == 0 {
		t.Fatalf("expected a mix of edge types, got %v", typeCounts)
	}
	if typeCounts[EdgeFlow] < typeCounts[EdgeDNS] {
		t.Fatalf("flow should dominate dns: %v", typeCounts)
	}
}

func TestNetFlowSkewedDegrees(t *testing.T) {
	cfg := DefaultNetFlowConfig()
	cfg.Edges = 5000
	cfg.Hosts = 200
	cfg.Servers = 20
	edges := NewNetFlow(cfg, nil).Generate()
	indeg := map[graph.VertexID]int{}
	for _, se := range edges {
		indeg[se.Edge.Target]++
	}
	max, sum := 0, 0
	for _, d := range indeg {
		sum += d
		if d > max {
			max = d
		}
	}
	mean := float64(sum) / float64(len(indeg))
	if float64(max) < 5*mean {
		t.Fatalf("degree distribution not heavy-tailed: max %d vs mean %.1f", max, mean)
	}
}

func TestInjectorSmurfStructure(t *testing.T) {
	cfg := DefaultNetFlowConfig()
	cfg.Edges = 10
	nf := NewNetFlow(cfg, nil)
	in := NewInjector(DefaultInjectorConfig(), nf.Hosts(), nf.Sequence())
	edges, inst := in.Smurf(cfg.Start)
	if inst.Kind != AttackSmurf {
		t.Fatalf("kind = %v", inst.Kind)
	}
	if len(edges) != 2*DefaultInjectorConfig().SmurfAmplifiers {
		t.Fatalf("smurf edge count = %d", len(edges))
	}
	attacker, victim := inst.Actors[0], inst.Actors[1]
	for i := 0; i < len(edges); i += 2 {
		req, rep := edges[i], edges[i+1]
		if req.Edge.Type != EdgeICMPReq || rep.Edge.Type != EdgeICMPReply {
			t.Fatalf("edge types wrong at %d: %s %s", i, req.Edge.Type, rep.Edge.Type)
		}
		if req.Edge.Source != attacker {
			t.Fatalf("request not from attacker")
		}
		if req.Edge.Target != rep.Edge.Source {
			t.Fatalf("reply does not come from the amplifier that was pinged")
		}
		if rep.Edge.Target != victim {
			t.Fatalf("reply not aimed at victim")
		}
		if rep.Edge.Timestamp < req.Edge.Timestamp {
			t.Fatalf("reply precedes request")
		}
	}
	if inst.End < inst.Start {
		t.Fatalf("instance interval inverted")
	}
	if len(inst.EdgeIDs) != len(edges) {
		t.Fatalf("ground truth edge list incomplete")
	}
}

func TestInjectorWormAndExfiltration(t *testing.T) {
	cfg := DefaultNetFlowConfig()
	nf := NewNetFlow(cfg, nil)
	in := NewInjector(DefaultInjectorConfig(), nf.Hosts(), nf.Sequence())

	wEdges, wInst := in.Worm(cfg.Start)
	if len(wEdges) != 3*DefaultInjectorConfig().WormChainLength {
		t.Fatalf("worm edge count = %d", len(wEdges))
	}
	if len(wInst.Actors) != DefaultInjectorConfig().WormChainLength+1 {
		t.Fatalf("worm chain actors = %d", len(wInst.Actors))
	}

	eEdges, eInst := in.Exfiltration(cfg.Start)
	if len(eEdges) != 3 || len(eInst.Actors) != 3 {
		t.Fatalf("exfiltration shape wrong: %d edges, %d actors", len(eEdges), len(eInst.Actors))
	}
	if eEdges[0].Edge.Type != EdgeLogin || eEdges[1].Edge.Type != EdgeFileRead || eEdges[2].Edge.Type != EdgeFlow {
		t.Fatalf("exfiltration edge sequence wrong")
	}
	if b, _ := eEdges[2].Edge.Attrs.Get("bytes"); b.Int64() < 10_000_000 {
		t.Fatalf("exfiltration flow too small to trigger the query predicate")
	}
}

func TestInjectorInjectCountsAndOrder(t *testing.T) {
	cfg := DefaultNetFlowConfig()
	nf := NewNetFlow(cfg, nil)
	in := NewInjector(DefaultInjectorConfig(), nf.Hosts(), nf.Sequence())
	end := cfg.Start.Add(time.Hour)
	edges, instances := in.Inject(AttackSmurf, 5, cfg.Start, end)
	if len(instances) != 5 {
		t.Fatalf("instances = %d", len(instances))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1].Edge.Timestamp > edges[i].Edge.Timestamp {
			t.Fatalf("injected edges not time ordered")
		}
	}
	if _, unknown := in.Inject(AttackKind("bogus"), 3, cfg.Start, end); len(unknown) != 0 {
		t.Fatalf("unknown attack kind should inject nothing")
	}
}

// TestInjectedSmurfDetectedByEngine is the end-to-end recall check: every
// injected Smurf attack leg must be reported by the engine over the merged
// background + attack stream.
func TestInjectedSmurfDetectedByEngine(t *testing.T) {
	cfg := DefaultNetFlowConfig()
	cfg.Edges = 3000
	cfg.Hosts = 300
	cfg.Servers = 20
	nf := NewNetFlow(cfg, nil)
	background := nf.Generate()

	icfg := DefaultInjectorConfig()
	icfg.SmurfAmplifiers = 5
	icfg.Spread = 10 * time.Second
	in := NewInjector(icfg, nf.Hosts(), nf.Sequence())
	end := background[len(background)-1].Edge.Timestamp
	attacks, instances := in.Inject(AttackSmurf, 3, cfg.Start, end)
	merged := stream.Merge(background, attacks)

	engine := core.New(nil)
	if _, err := engine.RegisterQuery(SmurfQuery(time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Track detected (attacker, amplifier, victim) triples.
	detected := map[[3]graph.VertexID]bool{}
	for _, se := range merged {
		for _, ev := range engine.ProcessEdge(se) {
			a, _ := ev.Match.Vertex(0)
			m, _ := ev.Match.Vertex(1)
			v, _ := ev.Match.Vertex(2)
			detected[[3]graph.VertexID{a, m, v}] = true
		}
	}
	for _, inst := range instances {
		attacker, victim := inst.Actors[0], inst.Actors[1]
		for _, amp := range inst.Actors[2:] {
			if !detected[[3]graph.VertexID{attacker, amp, victim}] {
				t.Fatalf("injected smurf leg %v->%v->%v not detected", attacker, amp, victim)
			}
		}
	}
}

func TestNewsGeneratorStructureAndEvents(t *testing.T) {
	cfg := DefaultNewsConfig()
	cfg.Articles = 500
	cfg.Keywords = 100
	cfg.Locations = 20
	cfg.People = 50
	cfg.Orgs = 20
	cfg.EventClusters = 3
	cfg.EventArticles = 3
	n := NewNews(cfg, nil)
	edges, events := n.Generate()
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if len(edges) == 0 {
		t.Fatalf("no edges generated")
	}
	var last graph.Timestamp
	for i, se := range edges {
		if se.Edge.Timestamp < last {
			t.Fatalf("merged stream not time ordered at %d", i)
		}
		last = se.Edge.Timestamp
	}
	for _, ev := range events {
		if len(ev.Articles) != 3 {
			t.Fatalf("event has %d articles", len(ev.Articles))
		}
		if ev.End < ev.Start {
			t.Fatalf("event interval inverted")
		}
	}
	// Every event article must mention the event keyword and location.
	byArticle := map[graph.VertexID]map[graph.VertexID]bool{}
	for _, se := range edges {
		if se.Edge.Type == EdgeMentions || se.Edge.Type == EdgeLocated {
			if byArticle[se.Edge.Source] == nil {
				byArticle[se.Edge.Source] = map[graph.VertexID]bool{}
			}
			byArticle[se.Edge.Source][se.Edge.Target] = true
		}
	}
	for _, ev := range events {
		for _, a := range ev.Articles {
			if !byArticle[a][ev.Keyword] || !byArticle[a][ev.Location] {
				t.Fatalf("event article %d missing keyword/location link", a)
			}
		}
	}
}

func TestNewsDeterministic(t *testing.T) {
	cfg := DefaultNewsConfig()
	cfg.Articles = 200
	e1, ev1 := NewNews(cfg, nil).Generate()
	e2, ev2 := NewNews(cfg, nil).Generate()
	if len(e1) != len(e2) || len(ev1) != len(ev2) {
		t.Fatalf("news generator not deterministic in sizes")
	}
	for i := range e1 {
		if e1[i].Edge.ID != e2[i].Edge.ID || e1[i].Edge.Target != e2[i].Edge.Target {
			t.Fatalf("news generator not deterministic at %d", i)
		}
	}
}

func TestPredefinedQueriesAreValid(t *testing.T) {
	w := 10 * time.Minute
	queries := []interface {
		NumEdges() int
		Name() string
	}{
		SmurfQuery(w), WormQuery(w), WormChainQuery(w), ExfiltrationQuery(w),
		NewsEventQuery(w, 3, ""), NewsEventQuery(w, 2, KeywordLabel(0)),
	}
	for _, q := range queries {
		if q.NumEdges() == 0 {
			t.Fatalf("query %s has no edges", q.Name())
		}
	}
	if NewsEventQuery(w, 0, "").NumEdges() != 4 {
		t.Fatalf("article count clamp failed")
	}
}
