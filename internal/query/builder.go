package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Validation errors returned by Builder.Build and Parse.
var (
	// ErrEmptyQuery is returned when a query has no edges.
	ErrEmptyQuery = errors.New("query: query graph has no edges")
	// ErrDisconnected is returned when the query pattern is not connected.
	ErrDisconnected = errors.New("query: query graph is not connected")
	// ErrUnknownVertex is returned when an edge references an undeclared vertex.
	ErrUnknownVertex = errors.New("query: edge references unknown vertex")
	// ErrDuplicateVertex is returned when the same variable name is declared twice.
	ErrDuplicateVertex = errors.New("query: duplicate vertex name")
	// ErrNegativeWindow is returned when the window duration is negative.
	ErrNegativeWindow = errors.New("query: negative time window")
)

// Builder assembles a query Graph programmatically:
//
//	q, err := query.NewBuilder("smurf").
//		Window(10*time.Minute).
//		Vertex("attacker", "Host").
//		Vertex("amp", "Host").
//		Vertex("victim", "Host").
//		Edge("attacker", "amp", "icmp_echo_req").
//		Edge("amp", "victim", "icmp_echo_reply").
//		Build()
//
// Builder methods record the first error encountered and Build returns it.
type Builder struct {
	name     string
	window   time.Duration
	vertices []Vertex
	edges    []Edge
	byName   map[string]VertexID
	err      error
}

// NewBuilder starts a new query with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]VertexID)}
}

// Window sets the query time window tW. Zero (the default) means none: the
// engine's retention is then the window, unbounded only when the retention
// is.
func (b *Builder) Window(w time.Duration) *Builder {
	if b.err != nil {
		return b
	}
	if w < 0 {
		b.err = ErrNegativeWindow
		return b
	}
	b.window = w
	return b
}

// Vertex declares a pattern vertex with a variable name, a required data
// vertex type (empty matches any type) and optional attribute predicates.
func (b *Builder) Vertex(name, typ string, preds ...Predicate) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.byName[name]; dup {
		b.err = fmt.Errorf("%w: %q", ErrDuplicateVertex, name)
		return b
	}
	id := VertexID(len(b.vertices))
	b.vertices = append(b.vertices, Vertex{ID: id, Name: name, Type: typ, Preds: preds})
	b.byName[name] = id
	return b
}

// Edge declares a directed pattern edge from the vertex named src to the
// vertex named dst with the given edge type (empty matches any type) and
// optional attribute predicates. Both vertices must have been declared.
func (b *Builder) Edge(src, dst, typ string, preds ...Predicate) *Builder {
	return b.edge(src, dst, typ, false, preds)
}

// UndirectedEdge declares a pattern edge that matches a data edge in either
// direction between the two vertices.
func (b *Builder) UndirectedEdge(src, dst, typ string, preds ...Predicate) *Builder {
	return b.edge(src, dst, typ, true, preds)
}

func (b *Builder) edge(src, dst, typ string, anyDir bool, preds []Predicate) *Builder {
	if b.err != nil {
		return b
	}
	sid, ok := b.byName[src]
	if !ok {
		b.err = fmt.Errorf("%w: %q", ErrUnknownVertex, src)
		return b
	}
	did, ok := b.byName[dst]
	if !ok {
		b.err = fmt.Errorf("%w: %q", ErrUnknownVertex, dst)
		return b
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{
		ID: id, Source: sid, Target: did, Type: typ, AnyDirection: anyDir, Preds: preds,
	})
	return b
}

// Build validates the accumulated pattern and returns the immutable query
// graph. The pattern must contain at least one edge, every declared vertex
// must be used by at least one edge, and the pattern must be connected.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.edges) == 0 {
		return nil, ErrEmptyQuery
	}
	q := &Graph{
		name:     b.name,
		window:   b.window,
		vertices: append([]Vertex(nil), b.vertices...),
		edges:    append([]Edge(nil), b.edges...),
		out:      make(map[VertexID][]EdgeID),
		in:       make(map[VertexID][]EdgeID),
	}
	var buf [64]byte // room for a typical pattern's names: the key is one allocation
	key := buf[:0]
	for _, v := range q.vertices {
		key = binary.AppendUvarint(key, uint64(len(v.Name)))
		key = append(key, v.Name...)
	}
	q.variables = string(key)
	for i := range q.edges {
		e := &q.edges[i]
		q.out[e.Source] = append(q.out[e.Source], e.ID)
		q.in[e.Target] = append(q.in[e.Target], e.ID)
	}
	if !q.IsConnected() {
		return nil, ErrDisconnected
	}
	return q, nil
}

// MustBuild is like Build but panics on error. Intended for tests and
// example programs with statically known-good patterns.
func (b *Builder) MustBuild() *Graph {
	q, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("query: MustBuild: %v", err))
	}
	return q
}
