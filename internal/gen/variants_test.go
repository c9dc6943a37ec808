package gen

import (
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

func tinyManyQueriesWorkload() Workload {
	cfg := NetFlowConfig{
		Hosts:       100,
		Servers:     10,
		Edges:       1200,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        53,
	}
	newsCfg := DefaultNewsConfig()
	newsCfg.Articles = 120
	newsCfg.Keywords = 40
	newsCfg.Locations = 10
	newsCfg.EventClusters = 2
	newsCfg.Gap = 200 * time.Millisecond
	newsCfg.Seed = 54
	return ManyQueriesWorkload(cfg, newsCfg, 10*time.Second, 16)
}

// TestQueryVariantsShape pins the generator contract: n uniquely named
// queries, every family represented, structural repeats present (the sharing
// fodder) and predicate tiers splitting the exfil family.
func TestQueryVariantsShape(t *testing.T) {
	const n = 40
	qs := QueryVariants(n, 10*time.Second)
	if len(qs) != n {
		t.Fatalf("QueryVariants(%d) returned %d queries", n, len(qs))
	}
	names := make(map[string]bool, n)
	for _, q := range qs {
		if names[q.Name()] {
			t.Fatalf("duplicate variant name %q", q.Name())
		}
		names[q.Name()] = true
	}
	for _, fam := range queryVariantFamilies {
		found := 0
		for _, q := range qs {
			if len(q.Name()) > len(fam.base) && q.Name()[:len(fam.base)+2] == fam.base+"-v" {
				found++
			}
		}
		if found == 0 {
			t.Fatalf("family %q has no variants among %d", fam.base, n)
		}
		if found < 2 {
			t.Fatalf("family %q has only %d variant; no structural repeats to share", fam.base, found)
		}
	}
}

// TestManyQueriesWorkloadShape: the merged netflow+news stream must be
// time-ordered with globally unique edge IDs (the two generators share one
// ID sequence), and both regimes must actually be present.
func TestManyQueriesWorkloadShape(t *testing.T) {
	w := tinyManyQueriesWorkload()
	if len(w.Queries) != 16 {
		t.Fatalf("workload carries %d queries, want 16", len(w.Queries))
	}
	ids := make(map[graph.EdgeID]bool, len(w.Edges))
	last := w.Edges[0].Edge.Timestamp
	sawNetflow, sawNews := false, false
	for _, se := range w.Edges {
		if se.Edge.Timestamp < last {
			t.Fatalf("stream not time-ordered")
		}
		last = se.Edge.Timestamp
		if ids[se.Edge.ID] {
			t.Fatalf("duplicate edge ID %d across the merged netflow+news stream", se.Edge.ID)
		}
		ids[se.Edge.ID] = true
		switch se.Edge.Type {
		case EdgeFlow, EdgeICMPReq, EdgeICMPReply, EdgeScan, EdgeInfect, EdgeLogin, EdgeDNS:
			sawNetflow = true
		case EdgeMentions, EdgeLocated:
			sawNews = true
		}
	}
	if !sawNetflow || !sawNews {
		t.Fatalf("merged stream missing a regime: netflow=%v news=%v", sawNetflow, sawNews)
	}
}

// TestManyQueriesSharedPlansWin is the unit-scale proof of the shared DAG: on
// the many-queries workload the engine must (a) detect the oracle's match
// set, (b) actually share (shared nodes, shared hits accumulated) and (c) run
// materially fewer local searches than the queries' leaves cover — what one
// private plan per query would search — the mechanism behind what the
// ledger's manyq-shared workload measures at full scale.
func TestManyQueriesSharedPlansWin(t *testing.T) {
	w := tinyManyQueriesWorkload()
	ref := Oracle(w)
	if len(ref) == 0 {
		t.Fatalf("the oracle found no matches; workload proves nothing")
	}
	set, m, err := RunSingle(w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !set.Equal(ref) {
		t.Fatalf("match set diverges from the oracle's: got %d matches, want %d", len(set), len(ref))
	}
	if m.MQO.SharedNodes == 0 || m.MQO.SharedHits == 0 {
		t.Fatalf("no sharing on 16 cycled variants: sharedNodes=%d sharedHits=%d",
			m.MQO.SharedNodes, m.MQO.SharedHits)
	}
	if m.MQO.Attachments != len(w.Queries) {
		t.Fatalf("DAG attachments = %d, want %d", m.MQO.Attachments, len(w.Queries))
	}
	// 16 variants over 8 families: at least half the evaluation work must
	// deduplicate away.
	var covered uint64
	for _, q := range m.Queries {
		covered += q.LocalSearches
	}
	if m.LocalSearches*2 > covered {
		t.Fatalf("the DAG ran %d local searches for %d covered by the queries' leaves; expected at least a 2x reduction",
			m.LocalSearches, covered)
	}
}
