// Package stats implements the summarization component of StreamWorks
// (paper §4.3): the vertex and edge type distributions and the frequency
// distribution of multi-relational triads, and the selectivity estimates the
// query planner derives from them to decide the decomposition and join order
// of a query graph.
//
// The statistics describe the stream as it is now: the retained window. Type
// counts are read from the window graph itself, which already indexes them;
// triads, which the graph cannot answer cheaply, are counted as edges arrive
// and forgotten a generation at a time as the window moves on (Expire).
package stats

import (
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

// Summary holds the planner's view of the stream. Like the engine that feeds
// it, it is single-goroutine state: Observe, Expire and the planner's reads
// must all come from the goroutine driving the engine.
type Summary struct {
	// g is the window graph last handed to Observe; an empty one until then.
	g             *graph.Graph
	triads        triadRing
	triadSampling int // sample 1 in triadSampling edges for triad counting; 0 disables
	observed      uint64
}

// Option configures a Summary.
type Option func(*Summary)

// WithTriadSampling sets the sampling rate for triad statistics: one in n
// arriving edges triggers a scan of its endpoints' incident edges. n = 1
// counts every edge, n = 0 disables triad collection entirely.
func WithTriadSampling(n int) Option {
	return func(s *Summary) { s.triadSampling = n }
}

// NewSummary constructs an empty summary. By default triads are sampled on
// every tenth edge, which keeps the per-edge overhead bounded on skewed
// graphs while converging to the same ranking of triad frequencies.
func NewSummary(opts ...Option) *Summary {
	s := &Summary{g: graph.New(), triadSampling: 10}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Observe accounts for one arriving stream edge, already applied to g, the
// live window graph (never nil): the counts are read from g until the next
// Observe and, subject to sampling, the wedges the new edge forms in g are
// counted.
func (s *Summary) Observe(se graph.StreamEdge, g *graph.Graph) {
	s.g = g
	s.observed++
	if s.triadSampling > 0 && s.observed%uint64(s.triadSampling) == 0 {
		s.triads.observeEdge(g, &se.Edge)
	}
}

// Expire applies the window's expiry cutoff (graph.ExpiryCutoff) to the
// triad counts: generations holding only wedges with an edge below it are
// dropped. The counts then cover at most 1 + 1/sealsPerRetention retentions
// of wedges; with retention 0 nothing is dropped.
func (s *Summary) Expire(cutoff graph.Timestamp, retention time.Duration) {
	s.triads.expire(cutoff, retention)
}

// TotalEdges returns the number of edges in the window.
func (s *Summary) TotalEdges() uint64 { return uint64(s.g.NumEdges()) }

// TotalVertices returns the number of vertices in the window.
func (s *Summary) TotalVertices() uint64 { return uint64(s.g.NumVertices()) }

// VertexTypeCount returns how many vertices of the given type the window
// holds.
func (s *Summary) VertexTypeCount(typ string) uint64 { return uint64(s.g.CountVerticesOfType(typ)) }

// EdgeTypeCount returns how many edges of the given type the window holds.
func (s *Summary) EdgeTypeCount(typ string) uint64 { return uint64(s.g.CountEdgesOfType(typ)) }

// TriadFrequency returns the sampled count of wedges with the given
// signature that have not expired yet; multiply by TriadScale to estimate
// the true count.
func (s *Summary) TriadFrequency(key TriadKey) uint64 { return s.triads.count(key) }

// TriadScale compensates for triad sampling: the factor observed triad
// counts must be multiplied by (1 when unsampled).
func (s *Summary) TriadScale() float64 {
	if s.triadSampling > 1 {
		return float64(s.triadSampling)
	}
	return 1
}
