// Package query defines the query-graph model of StreamWorks: a small typed
// pattern graph whose vertices and edges carry type labels and attribute
// predicates, plus the time window tW within which a match must fall.
//
// Query graphs are built either programmatically with Builder or parsed from
// the text DSL understood by Parse (see parser.go). The planner decomposes a
// query graph into search primitives (sub-patterns) and the engine matches
// those primitives incrementally against the dynamic data graph.
package query

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/streamworks/streamworks/internal/graph"
)

// VertexID identifies a vertex of a query graph. IDs are dense and assigned
// in insertion order by Builder/Parse, starting at 0.
type VertexID int

// EdgeID identifies an edge of a query graph. IDs are dense and assigned in
// insertion order, starting at 0.
type EdgeID int

// Vertex is a pattern vertex: it matches data vertices whose type equals
// Type (when Type is non-empty) and which satisfy all predicates.
type Vertex struct {
	ID    VertexID
	Name  string // variable name used in the DSL and in match output
	Type  string // required data-vertex type; empty matches any type
	Preds []Predicate
}

// Matches reports whether the data vertex satisfies this pattern vertex.
func (qv *Vertex) Matches(dv *graph.Vertex) bool {
	if dv == nil {
		return false
	}
	if qv.Type != "" && qv.Type != dv.Type {
		return false
	}
	for _, p := range qv.Preds {
		if !p.Eval(dv.Attrs) {
			return false
		}
	}
	return true
}

// String renders the pattern vertex.
func (qv *Vertex) String() string {
	var sb strings.Builder
	sb.WriteString(qv.Name)
	if qv.Type != "" {
		sb.WriteString(":")
		sb.WriteString(qv.Type)
	}
	for _, p := range qv.Preds {
		sb.WriteString(" ")
		sb.WriteString(p.String())
	}
	return sb.String()
}

// Edge is a pattern edge between two pattern vertices. It matches data edges
// whose type equals Type (when non-empty), whose direction agrees (unless
// AnyDirection is set) and which satisfy all predicates.
type Edge struct {
	ID           EdgeID
	Source       VertexID
	Target       VertexID
	Type         string
	AnyDirection bool
	Preds        []Predicate
}

// MatchesEdge reports whether the data edge satisfies the label and
// attribute constraints of this pattern edge (direction is checked by the
// matcher, which knows the candidate vertex bindings).
func (qe *Edge) MatchesEdge(de *graph.Edge) bool {
	if de == nil {
		return false
	}
	if qe.Type != "" && qe.Type != de.Type {
		return false
	}
	for _, p := range qe.Preds {
		if !p.Eval(de.Attrs) {
			return false
		}
	}
	return true
}

// String renders the pattern edge.
func (qe *Edge) String() string {
	arrow := "->"
	if qe.AnyDirection {
		arrow = "--"
	}
	label := qe.Type
	if label == "" {
		label = "*"
	}
	return fmt.Sprintf("(%d) -[%s]%s (%d)", qe.Source, label, arrow, qe.Target)
}

// Graph is an immutable query pattern: a small connected multigraph of
// pattern vertices and edges plus the time window within which a match's
// temporal span must fall. Construct with Builder or Parse.
type Graph struct {
	name     string
	window   time.Duration
	vertices []Vertex
	edges    []Edge

	out map[VertexID][]EdgeID
	in  map[VertexID][]EdgeID
}

// Name returns the query name (may be empty for ad-hoc queries).
func (q *Graph) Name() string { return q.name }

// Window returns the query time window tW. Zero means none: the engine's
// retention is then the window, unbounded only when the retention is.
func (q *Graph) Window() time.Duration { return q.window }

// NumVertices returns the number of pattern vertices.
func (q *Graph) NumVertices() int { return len(q.vertices) }

// NumEdges returns the number of pattern edges.
func (q *Graph) NumEdges() int { return len(q.edges) }

// Vertex returns the pattern vertex with the given ID.
func (q *Graph) Vertex(id VertexID) *Vertex {
	if int(id) < 0 || int(id) >= len(q.vertices) {
		return nil
	}
	return &q.vertices[id]
}

// VertexByName returns the pattern vertex with the given variable name.
func (q *Graph) VertexByName(name string) (*Vertex, bool) {
	for i := range q.vertices {
		if q.vertices[i].Name == name {
			return &q.vertices[i], true
		}
	}
	return nil, false
}

// Edge returns the pattern edge with the given ID.
func (q *Graph) Edge(id EdgeID) *Edge {
	if int(id) < 0 || int(id) >= len(q.edges) {
		return nil
	}
	return &q.edges[id]
}

// Vertices returns a copy of the pattern vertex slice.
func (q *Graph) Vertices() []Vertex {
	out := make([]Vertex, len(q.vertices))
	copy(out, q.vertices)
	return out
}

// Edges returns a copy of the pattern edge slice.
func (q *Graph) Edges() []Edge {
	out := make([]Edge, len(q.edges))
	copy(out, q.edges)
	return out
}

// EdgeIDs returns every pattern edge ID in ascending order.
func (q *Graph) EdgeIDs() []EdgeID {
	out := make([]EdgeID, len(q.edges))
	for i := range q.edges {
		out[i] = EdgeID(i)
	}
	return out
}

// EndpointsOf returns the endpoint vertex IDs of the given edges (dedup'd,
// ascending). It is used by the decomposer to compute cut vertices.
func (q *Graph) EndpointsOf(edges []EdgeID) []VertexID {
	set := make(map[VertexID]struct{})
	for _, eid := range edges {
		e := q.Edge(eid)
		if e == nil {
			continue
		}
		set[e.Source] = struct{}{}
		set[e.Target] = struct{}{}
	}
	out := make([]VertexID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsConnected reports whether the pattern (ignoring direction) is connected.
// The engine requires connected query graphs.
func (q *Graph) IsConnected() bool {
	if len(q.vertices) == 0 {
		return false
	}
	if len(q.vertices) == 1 {
		return true
	}
	return q.SubsetConnected(q.EdgeIDs()) && len(q.EndpointsOf(q.EdgeIDs())) == len(q.vertices)
}

// SubsetConnected reports whether the subgraph induced by the given pattern
// edges is connected (ignoring direction). Decomposition primitives must be
// connected so that local search stays local.
func (q *Graph) SubsetConnected(edges []EdgeID) bool {
	if len(edges) == 0 {
		return false
	}
	adj := make(map[VertexID][]VertexID)
	verts := make(map[VertexID]struct{})
	for _, eid := range edges {
		e := q.Edge(eid)
		if e == nil {
			return false
		}
		adj[e.Source] = append(adj[e.Source], e.Target)
		adj[e.Target] = append(adj[e.Target], e.Source)
		verts[e.Source] = struct{}{}
		verts[e.Target] = struct{}{}
	}
	var start VertexID
	// Any start vertex will do: connectivity does not depend on it.
	for v := range verts {
		start = v
		break
	}
	seen := map[VertexID]struct{}{start: {}}
	stack := []VertexID{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[v] {
			if _, ok := seen[n]; !ok {
				seen[n] = struct{}{}
				stack = append(stack, n)
			}
		}
	}
	return len(seen) == len(verts)
}

// String renders the query graph in a DSL-like form.
func (q *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query %s (window %s)\n", q.name, q.window)
	for i := range q.vertices {
		fmt.Fprintf(&sb, "  vertex %s\n", q.vertices[i].String())
	}
	for i := range q.edges {
		e := &q.edges[i]
		arrow := "->"
		if e.AnyDirection {
			arrow = "--"
		}
		label := e.Type
		if label == "" {
			label = "*"
		}
		fmt.Fprintf(&sb, "  edge %s -[%s]%s %s\n",
			q.vertices[e.Source].Name, label, arrow, q.vertices[e.Target].Name)
	}
	return sb.String()
}
