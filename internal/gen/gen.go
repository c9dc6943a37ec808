// Package gen generates the synthetic workloads used to evaluate
// StreamWorks in place of the paper's proprietary data sources:
//
//   - NetFlow produces an internet-traffic-like stream (the CAIDA
//     substitute): typed hosts and servers exchanging flow/dns/icmp edges
//     with a heavy-tailed, preferential-attachment contact structure.
//   - Attack injectors weave the cyber-attack patterns of the paper's Fig. 3
//     (Smurf DDoS, worm propagation, data exfiltration, port scans) into a
//     background stream, recording ground truth for recall measurements.
//   - News produces a news/social-media-like stream (the NYT substitute):
//     articles mentioning Zipf-distributed keywords, locations, people and
//     organizations, with injected event clusters of co-located,
//     same-keyword articles matching the paper's Fig. 2 query.
//
// All generators are deterministic given a seed.
package gen

import (
	"math/rand"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

// Sequence hands out unique vertex and edge IDs to generators that compose
// into a single stream. The zero value starts at 1.
type Sequence struct {
	nextVertex graph.VertexID
	nextEdge   graph.EdgeID
}

// NextVertex returns a fresh vertex ID.
func (s *Sequence) NextVertex() graph.VertexID {
	s.nextVertex++
	return s.nextVertex
}

// NextEdge returns a fresh edge ID.
func (s *Sequence) NextEdge() graph.EdgeID {
	s.nextEdge++
	return s.nextEdge
}

// zipf draws ranks from a Zipf distribution over [0, n) with exponent s,
// used for keyword popularity and host contact skew.
type zipf struct {
	z *rand.Zipf
	n int
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	if n < 1 {
		n = 1
	}
	if s <= 1 {
		s = 1.1
	}
	return &zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1)), n: n}
}

func (z *zipf) draw() int {
	if z.n == 1 {
		return 0
	}
	return int(z.z.Uint64())
}

// jitter returns a non-negative random duration below max (zero when max<=0).
func jitter(rng *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(max)))
}
