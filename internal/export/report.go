// Package export resolves match events into the form consumers see: a
// MatchReport with query variables bound to data vertex IDs and the
// match's canonical signature, the one shape every backend and transport
// delivers. A Reporter carves the reports' slices from 8 KiB slab chunks
// (internal/slab), so the in-process backends allocate nothing per report.
package export

import (
	"fmt"
	"slices"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/slab"
)

// Binding is the resolved binding of one query variable in a match report.
type Binding struct {
	Variable string `json:"variable"`
	VertexID uint64 `json:"vertex_id"`
}

// MatchReport is the JSON-friendly form of one match event, with query
// variables resolved to data vertex IDs. Like the match it reports, it
// is immutable once built: the reports of one match (see Reporter) may share
// their Bindings and EdgeIDs slices, so sinks must not mutate them. Those
// slices may be carved from chunks shared with other reports, which a
// retained report keeps alive: copy what you keep long-term.
type MatchReport struct {
	Query      string    `json:"query"`
	DetectedAt int64     `json:"detected_at"`
	SpanStart  int64     `json:"span_start"`
	SpanEnd    int64     `json:"span_end"`
	Bindings   []Binding `json:"bindings"`
	EdgeIDs    []uint64  `json:"edge_ids"`
	// Signature is the match's canonical identity (the sorted pattern-edge →
	// data-edge binding, match.Match.Signature). Together with Query it lets
	// remote consumers deduplicate redelivered reports and compare match sets
	// across runs without access to the Match value itself.
	Signature string `json:"signature"`
	// DeliveredWallNS is the wall-clock nanosecond timestamp at which the
	// engine handed this report to subscriber sinks. Process-local
	// observability plumbing (the serving tier measures its flush segment
	// from it), never serialized: remote consumers always see zero.
	DeliveredWallNS int64 `json:"-"`
	// ArrivedWallNS is the serving-tier arrival time of the edge that
	// completed this match (core.MatchEvent.ArrivedWallNS). Like
	// DeliveredWallNS it is process-local observability plumbing — the flush
	// point subtracts it to record the per-match journey — and never
	// serialized.
	ArrivedWallNS int64 `json:"-"`
	// Seq is the write-ahead log position of the edge that completed this
	// match on a durable in-process engine (zero otherwise): what
	// AckDelivered moves the query's delivery cursor by. Process-local and
	// never serialized, like the wall-clock stamps.
	Seq uint64 `json:"-"`
}

// BuildReport resolves a match event into a MatchReport using the query
// graph for variable names.
//
// The third parameter is unused: a report carries vertex IDs only. It stays
// only because the benchmark harness still passes a data graph.
func BuildReport(ev core.MatchEvent, q *query.Graph, _ *graph.Graph) MatchReport {
	r := header(ev)
	r.Bindings = bindings(make([]Binding, ev.Match.NumVertices()), ev.Match, q)
	r.EdgeIDs = edgeIDs(make([]uint64, ev.Match.NumEdges()), ev.Match)
	return r
}

// Reporter builds the reports of a stream of match events, sharing
// what consecutive events have in common. The queries of one consumer group
// (internal/mqo) are handed the very same immutable *match.Match one
// after the other: their reports then share one sorted EdgeIDs slice and,
// when the queries name their variables alike, one Bindings slice. Reports
// of one match may therefore share slices; sinks must not mutate them. The
// slices are carved from the Reporter's 8 KiB slab chunks, so a report costs
// no allocation of its own. The zero value is ready to use; a Reporter is
// not safe for concurrent use.
type Reporter struct {
	match    *match.Match
	q        *query.Graph
	bindings []Binding
	edgeIDs  []uint64

	bindingSlab slab.Slab[Binding]
	edgeIDSlab  slab.Slab[uint64]
}

// Build is BuildReport, less what the previous report already holds.
func (b *Reporter) Build(ev core.MatchEvent, q *query.Graph) MatchReport {
	m := ev.Match
	sameMatch := m == b.match
	if !sameMatch {
		b.edgeIDs = edgeIDs(b.edgeIDSlab.Make(m.NumEdges()), m)
	}
	if !sameMatch || !sameVariables(q, b.q) {
		b.bindings = bindings(b.bindingSlab.Make(m.NumVertices()), m, q)
	}
	b.match, b.q = ev.Match, q
	r := header(ev)
	r.Bindings, r.EdgeIDs = b.bindings, b.edgeIDs
	return r
}

// sameVariables reports whether two queries give every pattern vertex the
// same name, so that a binding list resolved against one reads the same
// against the other.
func sameVariables(a, b *query.Graph) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.NumVertices() != b.NumVertices() {
		return false
	}
	for i := 0; i < a.NumVertices(); i++ {
		if a.Vertex(query.VertexID(i)).Name != b.Vertex(query.VertexID(i)).Name {
			return false
		}
	}
	return true
}

// header fills the scalar fields of ev's report.
func header(ev core.MatchEvent) MatchReport {
	return MatchReport{
		Query:         ev.Query,
		DetectedAt:    int64(ev.DetectedAt),
		SpanStart:     int64(ev.Match.Span.Start),
		SpanEnd:       int64(ev.Match.Span.End),
		Signature:     ev.CanonicalSignature(),
		ArrivedWallNS: ev.ArrivedWallNS,
	}
}

// bindings resolves m's vertex bindings into dst, which holds one per bound
// vertex, in ascending pattern-ID order.
func bindings(dst []Binding, m *match.Match, q *query.Graph) []Binding {
	out := dst[:0]
	m.ForEachVertex(func(qv query.VertexID, dv graph.VertexID) bool {
		b := Binding{VertexID: uint64(dv)}
		if q != nil {
			if v := q.Vertex(qv); v != nil {
				b.Variable = v.Name
			}
		}
		if b.Variable == "" {
			b.Variable = fmt.Sprintf("q%d", qv)
		}
		out = append(out, b)
		return true
	})
	return out
}

// edgeIDs lists m's data edge IDs in ascending order in dst, which holds
// one per bound edge.
func edgeIDs(dst []uint64, m *match.Match) []uint64 {
	ids := dst[:0]
	m.ForEachEdge(func(_ query.EdgeID, de graph.EdgeID) bool {
		ids = append(ids, uint64(de))
		return true
	})
	slices.Sort(ids)
	return ids
}
