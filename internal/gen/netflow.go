package gen

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

// Vertex and edge type labels used by the netflow workload. The cyber
// queries in the paper (Fig. 3) and the example programs reference these.
const (
	TypeHost   = "Host"
	TypeServer = "Server"

	EdgeFlow      = "flow"          // generic TCP/UDP flow
	EdgeDNS       = "dns_query"     // host asks a server for a name
	EdgeICMPReq   = "icmp_echo_req" // ping request
	EdgeICMPReply = "icmp_echo_rep" // ping reply
	EdgeLogin     = "login"         // user/host logs into a server
	EdgeFileRead  = "file_read"     // host reads a sensitive file share
	EdgeScan      = "port_scan"     // reconnaissance probe
	EdgeInfect    = "infect"        // worm payload delivery
)

// TrafficMix weighs the relative frequency of each background edge type.
// Weights need not sum to 1 — they are normalized — and a zero weight
// disables the type entirely. The zero value is invalid; start from
// DefaultTrafficMix or ScanHeavyTrafficMix.
type TrafficMix struct {
	Flow      float64
	DNS       float64
	Login     float64
	ICMPReq   float64
	ICMPReply float64
	Scan      float64
	Infect    float64
}

// DefaultTrafficMix is the classic benign mix the generator has always
// produced: mostly flows, some DNS and logins, a trickle of ICMP, and no
// scan or infection traffic (those arrive only via attack injection).
func DefaultTrafficMix() TrafficMix {
	return TrafficMix{Flow: 0.70, DNS: 0.15, Login: 0.07, ICMPReq: 0.05, ICMPReply: 0.03}
}

// ScanHeavyTrafficMix models a compromised network segment: reconnaissance
// probes dominate, infection payloads are common, benign flows collapse to
// a fraction of the stream. Swapping to this mid-stream inverts the
// selectivity ranking a plan frozen on DefaultTrafficMix was built from —
// the drift workload's whole point.
func ScanHeavyTrafficMix() TrafficMix {
	return TrafficMix{Flow: 0.02, DNS: 0.03, Login: 0.01, ICMPReq: 0.12, ICMPReply: 0.08, Scan: 0.55, Infect: 0.19}
}

// total returns the weight mass of the mix.
func (m TrafficMix) total() float64 {
	return m.Flow + m.DNS + m.Login + m.ICMPReq + m.ICMPReply + m.Scan + m.Infect
}

// pick maps one uniform draw u in [0,1) onto an edge type.
func (m TrafficMix) pick(u float64) string {
	total := m.total()
	if total <= 0 {
		return EdgeFlow
	}
	u *= total
	for _, wk := range [...]struct {
		w float64
		k string
	}{
		{m.Flow, EdgeFlow},
		{m.DNS, EdgeDNS},
		{m.Login, EdgeLogin},
		{m.ICMPReq, EdgeICMPReq},
		{m.ICMPReply, EdgeICMPReply},
		{m.Scan, EdgeScan},
		{m.Infect, EdgeInfect},
	} {
		if u < wk.w {
			return wk.k
		}
		u -= wk.w
	}
	// Float residue lands on the last non-zero weight's neighbour; flows
	// are always a safe default.
	return EdgeFlow
}

// MixPhase is one segment of a phased traffic schedule: the mix in force
// until the generator has emitted UpTo (a fraction in (0,1]) of its
// configured edge count.
type MixPhase struct {
	UpTo float64
	Mix  TrafficMix
}

// NetFlowConfig parameterizes the internet-traffic generator.
type NetFlowConfig struct {
	// Hosts and Servers are the number of workstation and server vertices.
	Hosts   int
	Servers int
	// Edges is the number of background edges to generate.
	Edges int
	// Start is the timestamp of the first edge; MeanGap is the average
	// inter-arrival time between consecutive background edges.
	Start   graph.Timestamp
	MeanGap time.Duration
	// ContactSkew is the Zipf exponent controlling how concentrated traffic
	// is on popular destinations (higher = more skewed). Values near 1.1-2.0
	// are realistic.
	ContactSkew float64
	// Seed makes the stream reproducible.
	Seed int64
	// Phases, when non-empty, schedules a drifting traffic mix: each phase's
	// mix applies until the emitted-edge fraction reaches its UpTo bound (the
	// last phase covers any remainder). Empty keeps the classic
	// DefaultTrafficMix for the whole stream, byte-identical to what the
	// generator produced before phases existed.
	Phases []MixPhase
}

// DefaultNetFlowConfig returns a laptop-scale configuration: 2,000 hosts,
// 100 servers, 100k edges at one edge per simulated millisecond.
func DefaultNetFlowConfig() NetFlowConfig {
	return NetFlowConfig{
		Hosts:       2000,
		Servers:     100,
		Edges:       100_000,
		Start:       graph.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC)),
		MeanGap:     time.Millisecond,
		ContactSkew: 1.4,
		Seed:        1,
	}
}

// NetFlow generates synthetic internet traffic.
type NetFlow struct {
	cfg     NetFlowConfig
	rng     *rand.Rand
	seq     *Sequence
	zip     *zipf
	now     graph.Timestamp
	host    []graph.VertexID
	srv     []graph.VertexID
	emitted int
}

// NewNetFlow constructs a generator. seq may be nil, in which case a fresh
// sequence starting at 0 is used.
func NewNetFlow(cfg NetFlowConfig, seq *Sequence) *NetFlow {
	if cfg.Hosts < 2 {
		cfg.Hosts = 2
	}
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = time.Millisecond
	}
	if seq == nil {
		seq = &Sequence{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &NetFlow{
		cfg: cfg,
		rng: rng,
		seq: seq,
		zip: newZipf(rng, cfg.Hosts+cfg.Servers, cfg.ContactSkew),
		now: cfg.Start,
	}
	for i := 0; i < cfg.Hosts; i++ {
		g.host = append(g.host, seq.NextVertex())
	}
	for i := 0; i < cfg.Servers; i++ {
		g.srv = append(g.srv, seq.NextVertex())
	}
	return g
}

// Hosts returns the generated host vertex IDs.
func (g *NetFlow) Hosts() []graph.VertexID { return g.host }

// Servers returns the generated server vertex IDs.
func (g *NetFlow) Servers() []graph.VertexID { return g.srv }

// Sequence returns the ID sequence, so attack injectors can share it.
func (g *NetFlow) Sequence() *Sequence { return g.seq }

// vertexByRank maps a Zipf rank to a vertex, preferring servers for the most
// popular ranks (services receive most traffic).
func (g *NetFlow) vertexByRank(rank int) (graph.VertexID, string) {
	if rank < len(g.srv) {
		return g.srv[rank], TypeServer
	}
	return g.host[(rank-len(g.srv))%len(g.host)], TypeHost
}

// randomHost picks a uniformly random workstation.
func (g *NetFlow) randomHost() graph.VertexID {
	return g.host[g.rng.Intn(len(g.host))]
}

// Generate produces the configured number of background edges in timestamp
// order.
func (g *NetFlow) Generate() []graph.StreamEdge {
	out := make([]graph.StreamEdge, 0, g.cfg.Edges)
	for i := 0; i < g.cfg.Edges; i++ {
		out = append(out, g.nextEdge())
	}
	return out
}

// currentMix returns the scheduled mix for the next emitted edge, or
// ok=false when no phases are configured (the legacy fixed thresholds then
// apply, keeping historical streams byte-identical).
func (g *NetFlow) currentMix() (TrafficMix, bool) {
	if len(g.cfg.Phases) == 0 || g.cfg.Edges <= 0 {
		return TrafficMix{}, false
	}
	frac := float64(g.emitted) / float64(g.cfg.Edges)
	for _, p := range g.cfg.Phases {
		if frac < p.UpTo {
			return p.Mix, true
		}
	}
	return g.cfg.Phases[len(g.cfg.Phases)-1].Mix, true
}

func (g *NetFlow) nextEdge() graph.StreamEdge {
	g.now = g.now.Add(g.cfg.MeanGap/2 + jitter(g.rng, g.cfg.MeanGap))
	src := g.randomHost()
	dstID, dstType := g.vertexByRank(g.zip.draw())
	for dstID == src {
		dstID, dstType = g.vertexByRank(g.zip.draw())
	}
	kind := g.rng.Float64()
	var typ string
	if mix, ok := g.currentMix(); ok {
		typ = mix.pick(kind)
	} else {
		// The pre-phases thresholds, kept as literal comparisons so
		// historical streams (and the checked-in goldens derived from them)
		// reproduce exactly.
		switch {
		case kind < 0.70:
			typ = EdgeFlow
		case kind < 0.85:
			typ = EdgeDNS
		case kind < 0.92:
			typ = EdgeLogin
		case kind < 0.97:
			typ = EdgeICMPReq
		default:
			typ = EdgeICMPReply
		}
	}
	g.emitted++
	se := graph.StreamEdge{
		SourceType: TypeHost,
		TargetType: dstType,
	}
	e := graph.Edge{
		ID:        g.seq.NextEdge(),
		Source:    src,
		Target:    dstID,
		Timestamp: g.now,
		Type:      typ,
	}
	switch typ {
	case EdgeFlow:
		e.Attrs = graph.Attributes{
			"bytes": graph.Int(int64(64 + g.rng.Intn(65_000))),
			"port":  graph.Int(int64(wellKnownPorts[g.rng.Intn(len(wellKnownPorts))])),
			"proto": graph.String(protoFor(g.rng)),
		}
	case EdgeDNS:
		e.Attrs = graph.Attributes{
			"qname": graph.String(fmt.Sprintf("svc-%d.example.com", g.rng.Intn(500))),
		}
	case EdgeLogin:
		e.Attrs = graph.Attributes{
			"user":    graph.String(fmt.Sprintf("user%d", g.rng.Intn(300))),
			"success": graph.Bool(g.rng.Float64() < 0.9),
		}
	case EdgeICMPReq, EdgeICMPReply:
		e.Attrs = graph.Attributes{"bytes": graph.Int(64)}
	case EdgeScan:
		e.Attrs = graph.Attributes{
			"ports_probed": graph.Int(int64(1 + g.rng.Intn(200))),
		}
	case EdgeInfect:
		e.Attrs = graph.Attributes{
			"payload": graph.String(fmt.Sprintf("probe-%d.bin", g.rng.Intn(16))),
		}
	}
	se.Edge = e
	return se
}

var wellKnownPorts = []int{22, 25, 53, 80, 123, 443, 445, 3306, 5432, 8080}

func protoFor(rng *rand.Rand) string {
	if rng.Float64() < 0.8 {
		return "tcp"
	}
	return "udp"
}
