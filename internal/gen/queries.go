package gen

import (
	"strconv"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// SmurfQuery returns the Smurf DDoS detection query of the paper's Fig. 3:
// an attacker host sends an echo request to an amplifier which echoes a
// reply towards the victim, all within the window. This two-edge core
// pattern detects every amplifier leg of the attack; counting distinct
// victims over legs yields the full DDoS picture.
func SmurfQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("smurf-ddos").
		Window(window).
		Vertex("attacker", TypeHost).
		Vertex("amplifier", TypeHost).
		Vertex("victim", TypeHost).
		Edge("attacker", "amplifier", EdgeICMPReq).
		Edge("amplifier", "victim", EdgeICMPReply).
		MustBuild()
}

// WormQuery returns a worm-propagation detection query: one infection hop
// consists of a port scan, a flow and an infect edge from the same source to
// the same destination within the window.
func WormQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("worm-hop").
		Window(window).
		Vertex("src", TypeHost).
		Vertex("dst", TypeHost).
		Edge("src", "dst", EdgeScan).
		Edge("src", "dst", EdgeFlow).
		Edge("src", "dst", EdgeInfect).
		MustBuild()
}

// WormChainQuery returns a two-hop worm propagation query: a host that was
// just infected starts infecting another host within the window.
func WormChainQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("worm-chain").
		Window(window).
		Vertex("patient0", TypeHost).
		Vertex("victim1", TypeHost).
		Vertex("victim2", TypeHost).
		Edge("patient0", "victim1", EdgeInfect).
		Edge("victim1", "victim2", EdgeScan).
		Edge("victim1", "victim2", EdgeInfect).
		MustBuild()
}

// ExfiltrationQuery returns the data-exfiltration query: a login to a file
// server, a large sensitive read, and a large outbound transfer from the
// same compromised host, all within the window.
func ExfiltrationQuery(window time.Duration) *query.Graph {
	return query.NewBuilder("exfiltration").
		Window(window).
		Vertex("compromised", TypeHost).
		Vertex("fileserver", TypeHost).
		Vertex("drop", TypeHost).
		Edge("compromised", "fileserver", EdgeLogin).
		Edge("compromised", "fileserver", EdgeFileRead, query.Gt("bytes", graph.Int(1_000_000))).
		Edge("compromised", "drop", EdgeFlow, query.Gt("bytes", graph.Int(10_000_000))).
		MustBuild()
}

// ReconBurstQuery returns the drift workload's plan-sensitive query: a
// reconnaissance host probing one target while staging a payload (infect +
// flow) on another. Its SJ-Tree decomposition matters in a way the Fig. 3
// suite's mostly does not: the {scan, infect} wedge through the recon host
// is vanishingly rare under benign traffic — so a plan frozen then happily
// anchors on it — but floods once the mix turns scan-heavy (uniform scan and
// infect sources make the wedge count the product of the two rates), while
// the {scan, flow} pairing collapses after the drift. The selective
// decomposition is different in each regime; a plan made in one runs
// through both.
func ReconBurstQuery(window time.Duration) *query.Graph {
	// probed and staging are deliberately untyped: reconnaissance hits
	// workstations and servers alike, and an untyped endpoint keeps every
	// scan edge a candidate — the flood the frozen plan must drown in.
	return query.NewBuilder("recon-burst").
		Window(window).
		Vertex("recon", TypeHost).
		Vertex("probed", "").
		Vertex("staging", "").
		Edge("recon", "probed", EdgeScan).
		Edge("recon", "staging", EdgeInfect).
		Edge("recon", "staging", EdgeFlow).
		MustBuild()
}

// NewsEventQuery returns the paper's Fig. 2 query: articles sharing a
// keyword and a location within the window; count controls how many
// articles the event must involve (the figure uses three).
func NewsEventQuery(window time.Duration, articles int, keywordLabel string) *query.Graph {
	if articles < 2 {
		articles = 2
	}
	b := query.NewBuilder("news-event").Window(window)
	var kwPreds []query.Predicate
	if keywordLabel != "" {
		kwPreds = append(kwPreds, query.Eq("label", graph.String(keywordLabel)))
	}
	b.Vertex("k", TypeKeyword, kwPreds...)
	b.Vertex("l", TypeLocation)
	names := make([]string, articles)
	for i := 0; i < articles; i++ {
		names[i] = articleVar(i)
		b.Vertex(names[i], TypeArticle)
	}
	for _, n := range names {
		b.Edge(n, "k", EdgeMentions)
		b.Edge(n, "l", EdgeLocated)
	}
	return b.MustBuild()
}

func articleVar(i int) string {
	return "a" + strconv.Itoa(i+1)
}
