package graph

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/streamworks/streamworks/internal/slab"
)

// The graph recycles what its insert/expire cycle would otherwise allocate
// per edge, within these bounds:
//
//   - records: edge records are carved from 8 KiB slab chunks (146 records
//     of 56 B; a record on its own is rounded up to 64 B). Records are never
//     reused, so a chunk is freed by the GC once none of its edges is
//     referenced.
//   - spareClasses, sparesPerClass: an incidence list that is grown out of or
//     emptied is cleared and kept for reuse at its power-of-two capacity
//     (2…256 pointers), at most 64 per class: ≤ 255 KiB of spares per graph.
//   - spareVertices: the records of removed vertices, kept for new ones.
const (
	spareClasses   = 8
	sparesPerClass = 64
	spareVertices  = 256
)

// Graph is an in-memory multi-relational property multigraph. It maintains
// per-vertex incidence lists split by direction, plus type indexes used by
// the query planner and the local-search primitive.
//
// Graph is not safe for concurrent mutation; the continuous engine serializes
// updates per stream partition. Read-only concurrent access after loading is
// safe.
type Graph struct {
	vertices map[VertexID]*Vertex
	edges    map[EdgeID]*Edge

	out map[VertexID][]*Edge
	in  map[VertexID][]*Edge

	verticesByType map[string]map[VertexID]struct{}
	edgesByType    map[string]int

	records      slab.Slab[Edge]         // where new edge records are carved
	spares       [spareClasses][][]*Edge // cleared lists of capacity 2<<class
	freeVertices []*Vertex               // zeroed records of removed vertices

	// autoVertex controls whether AddEdge creates missing endpoints with an
	// empty type instead of failing.
	autoVertex bool
}

// Option configures a Graph at construction time.
type Option func(*Graph)

// WithAutoVertices makes AddEdge silently create endpoints that have not
// been added explicitly. Stream ingestion uses this because vertex metadata
// often arrives embedded in the first edge that touches the vertex.
func WithAutoVertices() Option {
	return func(g *Graph) { g.autoVertex = true }
}

// New constructs an empty graph.
func New(opts ...Option) *Graph {
	g := &Graph{
		vertices:       make(map[VertexID]*Vertex),
		edges:          make(map[EdgeID]*Edge),
		out:            make(map[VertexID][]*Edge),
		in:             make(map[VertexID][]*Edge),
		verticesByType: make(map[string]map[VertexID]struct{}),
		edgesByType:    make(map[string]int),
	}
	for _, o := range opts {
		o(g)
	}
	return g
}

// NumVertices returns the number of vertices currently in the graph.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges currently in the graph.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex inserts or updates a vertex. If a vertex with the same ID exists
// its type is overwritten when the new type is non-empty and its attributes
// are merged.
//
// The graph takes the attribute map by reference: callers must not mutate
// v.Attrs after insertion. Updates never mutate a stored map in place
// (Attributes.Merge is copy-on-write), so sources are free to share one
// attribute map across many inserted vertices and edges.
func (g *Graph) AddVertex(v Vertex) *Vertex {
	existing, ok := g.vertices[v.ID]
	if !ok {
		var nv *Vertex
		if n := len(g.freeVertices); n > 0 {
			nv = g.freeVertices[n-1]
			g.freeVertices = g.freeVertices[:n-1]
		} else {
			nv = new(Vertex)
		}
		*nv = Vertex{ID: v.ID, Type: v.Type, Attrs: v.Attrs}
		g.vertices[v.ID] = nv
		g.indexVertexType(nv)
		return nv
	}
	if v.Type != "" && v.Type != existing.Type {
		g.unindexVertexType(existing)
		existing.Type = v.Type
		g.indexVertexType(existing)
	}
	// Streams repeat endpoint metadata on every edge (sharded routing
	// requires it); skip the copy-on-write merge entirely when it would
	// change nothing, which is the overwhelmingly common case.
	if len(v.Attrs) > 0 && !existing.Attrs.Covers(v.Attrs) {
		existing.Attrs = existing.Attrs.Merge(v.Attrs)
	}
	return existing
}

func (g *Graph) indexVertexType(v *Vertex) {
	set, ok := g.verticesByType[v.Type]
	if !ok {
		set = make(map[VertexID]struct{})
		g.verticesByType[v.Type] = set
	}
	set[v.ID] = struct{}{}
}

func (g *Graph) unindexVertexType(v *Vertex) {
	if set, ok := g.verticesByType[v.Type]; ok {
		delete(set, v.ID)
		if len(set) == 0 {
			delete(g.verticesByType, v.Type)
		}
	}
}

// Vertex returns the vertex with the given ID. The record is valid until the
// vertex is removed: the graph then zeroes it and reuses it for a new vertex.
func (g *Graph) Vertex(id VertexID) (*Vertex, bool) {
	v, ok := g.vertices[id]
	return v, ok
}

// HasVertex reports whether the vertex exists.
func (g *Graph) HasVertex(id VertexID) bool {
	_, ok := g.vertices[id]
	return ok
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) (*Edge, bool) {
	e, ok := g.edges[id]
	return e, ok
}

// HasEdge reports whether the edge exists.
func (g *Graph) HasEdge(id EdgeID) bool {
	_, ok := g.edges[id]
	return ok
}

// AddEdge inserts a directed edge. Both endpoints must already exist unless
// the graph was built WithAutoVertices. Duplicate edge IDs are rejected.
//
// As with AddVertex, the attribute map is taken by reference and must not be
// mutated by the caller after insertion; the graph itself never modifies
// edge attributes.
func (g *Graph) AddEdge(e Edge) (*Edge, error) {
	if e.ID == ReservedEdgeID || e.Source == ReservedVertexID || e.Target == ReservedVertexID {
		return nil, &EdgeError{ID: e.ID, Err: ErrReservedID}
	}
	if _, dup := g.edges[e.ID]; dup {
		return nil, &EdgeError{ID: e.ID, Err: ErrDuplicateEdge}
	}
	if !g.HasVertex(e.Source) {
		if !g.autoVertex {
			return nil, &VertexError{ID: e.Source, Err: ErrDanglingEdge}
		}
		g.AddVertex(Vertex{ID: e.Source})
	}
	if !g.HasVertex(e.Target) {
		if !g.autoVertex {
			return nil, &VertexError{ID: e.Target, Err: ErrDanglingEdge}
		}
		g.AddVertex(Vertex{ID: e.Target})
	}
	ne := &g.records.Make(1)[0]
	*ne = e
	g.edges[ne.ID] = ne
	g.out[ne.Source] = g.push(g.out[ne.Source], ne)
	g.in[ne.Target] = g.push(g.in[ne.Target], ne)
	g.edgesByType[ne.Type]++
	return ne, nil
}

// push appends e to an incidence list. A full list moves into a spare of
// twice its capacity (or 2) and is recycled.
func (g *Graph) push(list []*Edge, e *Edge) []*Edge {
	if len(list) < cap(list) {
		return append(list, e)
	}
	n := max(2, 2*cap(list))
	var grown []*Edge
	if c := spareClass(n); c >= 0 && len(g.spares[c]) > 0 {
		last := len(g.spares[c]) - 1
		grown, g.spares[c] = g.spares[c][last], g.spares[c][:last]
	} else {
		grown = make([]*Edge, 0, n)
	}
	grown = append(append(grown, list...), e)
	g.recycle(list)
	return grown
}

// recycle clears a list nothing refers to any more and keeps it as a spare
// while its class has room. Cleared, it holds no dead edge alive.
func (g *Graph) recycle(list []*Edge) {
	c := spareClass(cap(list))
	if c < 0 || len(g.spares[c]) == sparesPerClass {
		return
	}
	clear(list[:cap(list)])
	g.spares[c] = append(g.spares[c], list[:0])
}

// spareClass is the spare class of a list capacity (a power of two, as push
// makes them), or -1 when lists of that capacity are not kept.
func spareClass(capacity int) int {
	if c := bits.Len(uint(capacity)) - 2; c >= 0 && c < spareClasses {
		return c
	}
	return -1
}

// AddStreamEdge applies a StreamEdge: endpoint metadata is upserted and the
// edge added. It is the ingestion path used by the dynamic graph.
func (g *Graph) AddStreamEdge(se StreamEdge) (*Edge, error) {
	g.AddVertex(Vertex{ID: se.Edge.Source, Type: se.SourceType, Attrs: se.SourceAttrs})
	g.AddVertex(Vertex{ID: se.Edge.Target, Type: se.TargetType, Attrs: se.TargetAttrs})
	return g.AddEdge(se.Edge)
}

// RemoveEdge deletes an edge from the graph and its incidence lists.
// Endpoint vertices are retained even if they become isolated; callers that
// want compaction can call RemoveIsolatedVertex explicitly.
//
// The removed record keeps its ID, endpoints, type and timestamp, so an
// expiry callback can still read them, but drops its attributes: it shares a
// chunk with live edges, and must not hold its attribute map alive for them.
func (g *Graph) RemoveEdge(id EdgeID) error {
	e, ok := g.edges[id]
	if !ok {
		return &EdgeError{ID: id, Err: ErrEdgeNotFound}
	}
	delete(g.edges, id)
	g.unlink(g.out, e.Source, id)
	g.unlink(g.in, e.Target, id)
	if g.edgesByType[e.Type]--; g.edgesByType[e.Type] <= 0 {
		delete(g.edgesByType, e.Type)
	}
	e.Attrs = nil
	return nil
}

// unlink removes edge id from v's list in adj, recycling the list once empty.
func (g *Graph) unlink(adj map[VertexID][]*Edge, v VertexID, id EdgeID) {
	list := removeEdgeFrom(adj[v], id)
	if len(list) > 0 {
		adj[v] = list
		return
	}
	delete(adj, v)
	g.recycle(list)
}

func removeEdgeFrom(list []*Edge, id EdgeID) []*Edge {
	for i, e := range list {
		if e.ID == id {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = nil
			return list[:last]
		}
	}
	return list
}

// RemoveIsolatedVertex removes v if it has no incident edges. It returns
// true when the vertex was removed. The vertex's record is zeroed and kept
// for reuse.
func (g *Graph) RemoveIsolatedVertex(id VertexID) bool {
	v, ok := g.vertices[id]
	if !ok {
		return false
	}
	if len(g.out[id]) > 0 || len(g.in[id]) > 0 {
		return false
	}
	g.unindexVertexType(v)
	delete(g.vertices, id)
	*v = Vertex{}
	if len(g.freeVertices) < spareVertices {
		g.freeVertices = append(g.freeVertices, v)
	}
	return true
}

// OutEdges returns the edges leaving v. The returned slice is owned by the
// graph and must not be mutated. It is valid only until the next AddEdge or
// RemoveEdge (Dynamic.Apply and AdvanceTo call them): the graph recycles
// incidence lists, so a slice held across a mutation may come to list
// another vertex's edges.
func (g *Graph) OutEdges(v VertexID) []*Edge { return g.out[v] }

// InEdges returns the edges entering v, under the same contract as OutEdges.
func (g *Graph) InEdges(v VertexID) []*Edge { return g.in[v] }

// CountVerticesOfType returns the number of vertices with the given type.
func (g *Graph) CountVerticesOfType(t string) int { return len(g.verticesByType[t]) }

// CountEdgesOfType returns the number of edges with the given type.
func (g *Graph) CountEdgesOfType(t string) int { return g.edgesByType[t] }

// Vertices calls fn for every vertex until fn returns false.
func (g *Graph) Vertices(fn func(*Vertex) bool) {
	for _, v := range g.vertices {
		if !fn(v) {
			return
		}
	}
}

// Edges calls fn for every edge until fn returns false.
func (g *Graph) Edges(fn func(*Edge) bool) {
	for _, e := range g.edges {
		if !fn(e) {
			return
		}
	}
}

// EdgeIDs returns all edge IDs in ascending order.
func (g *Graph) EdgeIDs() []EdgeID {
	out := make([]EdgeID, 0, len(g.edges))
	for id := range g.edges {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	c.autoVertex = g.autoVertex
	for _, v := range g.vertices {
		c.AddVertex(*v)
	}
	for _, e := range g.edges {
		if _, err := c.AddEdge(*e); err != nil {
			// Cannot happen: the source graph is consistent by construction.
			panic(fmt.Sprintf("graph: clone failed: %v", err))
		}
	}
	return c
}

// String summarizes the graph size.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d, vertexTypes=%d, edgeTypes=%d)",
		len(g.vertices), len(g.edges), len(g.verticesByType), len(g.edgesByType))
}
