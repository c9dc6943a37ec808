package export

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"

	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// Binding is the resolved binding of one query variable in a match report.
type Binding struct {
	Variable   string            `json:"variable"`
	VertexID   uint64            `json:"vertex_id"`
	VertexType string            `json:"vertex_type,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// MatchReport is the JSON-friendly form of one match event, with query
// variables resolved against the data graph.
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
}

// BuildReport resolves a match event into a MatchReport using the query
// graph for variable names and (optionally) the data graph for vertex types
// and attributes. g may be nil, in which case only IDs are reported.
func BuildReport(ev core.MatchEvent, q *query.Graph, g *graph.Graph) MatchReport {
	r := MatchReport{
		Query:         ev.Query,
		DetectedAt:    int64(ev.DetectedAt),
		SpanStart:     int64(ev.Match.Span.Start),
		SpanEnd:       int64(ev.Match.Span.End),
		Signature:     ev.CanonicalSignature(),
		ArrivedWallNS: ev.ArrivedWallNS,
	}
	// ForEachVertex iterates in ascending pattern-ID order, matching the
	// sorted order the map-based representation had to construct.
	r.Bindings = make([]Binding, 0, ev.Match.NumVertices())
	ev.Match.ForEachVertex(func(qv query.VertexID, dv graph.VertexID) bool {
		b := Binding{VertexID: uint64(dv)}
		if q != nil {
			if v := q.Vertex(qv); v != nil {
				b.Variable = v.Name
			}
		}
		if b.Variable == "" {
			b.Variable = fmt.Sprintf("q%d", qv)
		}
		if g != nil {
			if v, ok := g.Vertex(dv); ok {
				b.VertexType = v.Type
				if len(v.Attrs) > 0 {
					b.Attrs = make(map[string]string, len(v.Attrs))
					for k, val := range v.Attrs {
						b.Attrs[k] = val.String()
					}
				}
			}
		}
		r.Bindings = append(r.Bindings, b)
		return true
	})
	deIDs := make([]uint64, 0, ev.Match.NumEdges())
	ev.Match.ForEachEdge(func(_ query.EdgeID, de graph.EdgeID) bool {
		deIDs = append(deIDs, uint64(de))
		return true
	})
	slices.Sort(deIDs)
	r.EdgeIDs = deIDs
	return r
}

// WriteJSONReports writes one JSON object per line for every match event.
func WriteJSONReports(w io.Writer, events []core.MatchEvent, q *query.Graph, g *graph.Graph) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(BuildReport(ev, q, g)); err != nil {
			return fmt.Errorf("export: encoding report: %w", err)
		}
	}
	return nil
}

// WriteTable writes match events as a fixed-width table: one row per event
// with the query name, detection time, span and the resolved bindings. It is
// the terminal substitute for the demo's tabular event view (Fig. 6).
func WriteTable(w io.Writer, events []core.MatchEvent, q *query.Graph, g *graph.Graph) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "QUERY\tDETECTED\tSPAN(ns)\tBINDINGS")
	for _, ev := range events {
		r := BuildReport(ev, q, g)
		parts := make([]string, 0, len(r.Bindings))
		for _, b := range r.Bindings {
			if b.VertexType != "" {
				parts = append(parts, fmt.Sprintf("%s=%s#%d", b.Variable, b.VertexType, b.VertexID))
			} else {
				parts = append(parts, fmt.Sprintf("%s=#%d", b.Variable, b.VertexID))
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", r.Query, r.DetectedAt, r.SpanEnd-r.SpanStart, strings.Join(parts, " "))
	}
	return tw.Flush()
}
