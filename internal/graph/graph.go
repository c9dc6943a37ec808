package graph

import "fmt"

// The graph recycles what its insert/expire cycle would otherwise allocate
// per edge, within these bounds:
//
//   - records: edge records live in 14 KiB chunks of 256, addressed by int32
//     handle (edges.go); the handle of an expired edge is reused for a new
//     one, so the chunks are kept up to the peak number of records held at
//     once.
//     The ID table (ID → handle) is at most half full and only grows.
//   - spareClasses, sparesPerClass: an incidence list that is grown out of or
//     emptied is kept for reuse at its power-of-two capacity (2…256
//     handles), at most 64 per class: ≤ 128 KiB of spares per graph.
//   - spareVertices: the records of removed vertices, kept for new ones.
const (
	spareClasses   = 8
	sparesPerClass = 64
	spareVertices  = 256
)

// Graph is an in-memory multi-relational property multigraph. Each vertex
// has one record that holds its incidence lists of edge handles, split by
// direction and in arrival order; per-type counts serve the query planner.
// A Dynamic is its only writer, so a vertex is in the graph exactly while an
// edge in it touches the vertex.
//
// Graph is not safe for concurrent mutation; the continuous engine serializes
// updates per stream partition. Read-only concurrent access after loading is
// safe.
type Graph struct {
	vertices map[VertexID]*vertexRecord
	records  records
	edges    idTable // the handles of the live edges, by ID

	verticesByType map[string]int
	edgesByType    map[string]int

	spares       spares
	freeVertices []*vertexRecord // zeroed records of removed vertices

	// mutations counts the changes to the graph's vertices, edges and vertex
	// types (see Mutations).
	mutations uint64
}

// vertexRecord is a vertex together with its incidence lists.
type vertexRecord struct {
	Vertex
	out, in fifo
}

// New constructs an empty graph. Only a Dynamic adds to a graph (NewDynamic
// builds its own); an empty one serves a reader that has seen no edge yet.
func New() *Graph {
	return &Graph{
		vertices:       make(map[VertexID]*vertexRecord),
		verticesByType: make(map[string]int),
		edgesByType:    make(map[string]int),
	}
}

// NumVertices returns the number of vertices currently in the graph.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges currently in the graph.
func (g *Graph) NumEdges() int { return g.edges.n }

// Mutations returns how many times a vertex or edge has been added or
// removed, or a vertex retyped. A reader that derives something from the
// graph can keep it until the count moves; attribute merges do not count.
func (g *Graph) Mutations() uint64 { return g.mutations }

// upsert inserts vertex v or updates the record of its ID: a non-empty type
// overwrites the stored one and the attributes are merged. It returns the
// record.
func (g *Graph) upsert(v Vertex) *vertexRecord {
	r, ok := g.vertices[v.ID]
	if !ok {
		if n := len(g.freeVertices); n > 0 {
			r = g.freeVertices[n-1]
			g.freeVertices = g.freeVertices[:n-1]
		} else {
			r = new(vertexRecord)
		}
		r.Vertex = v
		g.vertices[v.ID] = r
		g.verticesByType[v.Type]++
		g.mutations++
		return r
	}
	if v.Type != "" && v.Type != r.Type {
		g.mutations++
		g.uncountVertexType(r.Type)
		r.Type = v.Type
		g.verticesByType[v.Type]++
	}
	// Streams repeat endpoint metadata on every edge (sharded routing
	// requires it); skip the copy-on-write merge entirely when it would
	// change nothing, which is the overwhelmingly common case.
	if len(v.Attrs) > 0 && !r.Attrs.Covers(v.Attrs) {
		r.Attrs = r.Attrs.Merge(v.Attrs)
	}
	return r
}

func (g *Graph) uncountVertexType(t string) {
	if g.verticesByType[t]--; g.verticesByType[t] <= 0 {
		delete(g.verticesByType, t)
	}
}

// Vertex returns the vertex with the given ID. The record is valid until the
// vertex is removed: the graph then zeroes it and reuses it for a new vertex.
func (g *Graph) Vertex(id VertexID) (*Vertex, bool) {
	if r, ok := g.vertices[id]; ok {
		return &r.Vertex, true
	}
	return nil, false
}

// Edge returns the edge with the given ID. The record is valid until expiry
// passes it.
func (g *Graph) Edge(id EdgeID) (*Edge, bool) {
	if h := g.edges.find(&g.records, id); h >= 0 {
		return g.records.at(h), true
	}
	return nil, false
}

// admissible rejects an edge with a reserved or duplicate ID before anything
// about it is stored.
func (g *Graph) admissible(e Edge) error {
	if e.ID == ReservedEdgeID || e.Source == ReservedVertexID || e.Target == ReservedVertexID {
		return &EdgeError{ID: e.ID, Err: ErrReservedID}
	}
	if g.edges.find(&g.records, e.ID) >= 0 {
		return &EdgeError{ID: e.ID, Err: ErrDuplicateEdge}
	}
	return nil
}

// insert stores an admissible edge between the records of its endpoints
// and returns its handle.
func (g *Graph) insert(e Edge, src, dst *vertexRecord) int32 {
	h := g.records.alloc(e)
	g.edges.insert(&g.records, h)
	src.out.push(h, &g.spares)
	dst.in.push(h, &g.spares)
	g.edgesByType[e.Type]++
	g.mutations++
	return h
}

// addStreamEdge upserts the endpoints of se and adds its edge, returning
// the edge's handle. An edge that is rejected changes nothing: its endpoints
// are neither added nor updated.
func (g *Graph) addStreamEdge(se StreamEdge) (int32, error) {
	if err := g.admissible(se.Edge); err != nil {
		return -1, err
	}
	src := g.upsert(Vertex{ID: se.Edge.Source, Type: se.SourceType, Attrs: se.SourceAttrs})
	dst := g.upsert(Vertex{ID: se.Edge.Target, Type: se.TargetType, Attrs: se.TargetAttrs})
	return g.insert(se.Edge, src, dst), nil
}

// remove deletes the edge of handle h and returns the records of its
// endpoints. The record keeps the edge's ID, endpoints, type and timestamp
// but drops its attribute map; the handle is not released.
func (g *Graph) remove(h int32) (src, dst *vertexRecord) {
	e := g.records.at(h)
	src, dst = g.vertices[e.Source], g.vertices[e.Target]
	g.edges.delete(&g.records, e.ID)
	g.unlink(&src.out, h)
	g.unlink(&dst.in, h)
	if g.edgesByType[e.Type]--; g.edgesByType[e.Type] <= 0 {
		delete(g.edgesByType, e.Type)
	}
	e.Attrs = nil
	g.mutations++
	return src, dst
}

// unlink removes h from list, recycling the list once empty.
func (g *Graph) unlink(list *fifo, h int32) {
	list.remove(h)
	if list.len() == 0 {
		g.spares.recycle(list.buf)
		*list = fifo{}
	}
}

// removeIfIsolated removes r's vertex if it has no incident edges. The
// record is zeroed and kept for reuse.
func (g *Graph) removeIfIsolated(r *vertexRecord) {
	if r.out.len() > 0 || r.in.len() > 0 {
		return
	}
	g.uncountVertexType(r.Type)
	delete(g.vertices, r.ID)
	g.mutations++
	*r = vertexRecord{}
	if len(g.freeVertices) < spareVertices {
		g.freeVertices = append(g.freeVertices, r)
	}
}

// EdgeList is a read-only view of a vertex's out- or in-edges, in the order
// they were added: an edge that arrived out of timestamp order keeps its
// arrival position, and expiry leaves the others in order. A view is valid
// only until the next Dynamic.Apply or Dynamic.AdvanceTo: the graph
// recycles incidence lists, so a view held across a mutation may come to
// list another vertex's edges.
type EdgeList struct {
	recs    *records
	handles []int32
}

// Len returns the number of edges in the list.
func (l EdgeList) Len() int { return len(l.handles) }

// At returns the i-th edge, in arrival order.
func (l EdgeList) At(i int) *Edge { return l.recs.at(l.handles[i]) }

// OutEdges returns the edges leaving v in the order they were added.
func (g *Graph) OutEdges(v VertexID) EdgeList {
	if r, ok := g.vertices[v]; ok {
		return EdgeList{&g.records, r.out.live()}
	}
	return EdgeList{}
}

// InEdges returns the edges entering v in the order they were added.
func (g *Graph) InEdges(v VertexID) EdgeList {
	if r, ok := g.vertices[v]; ok {
		return EdgeList{&g.records, r.in.live()}
	}
	return EdgeList{}
}

// CountVerticesOfType returns the number of vertices with the given type.
func (g *Graph) CountVerticesOfType(t string) int { return g.verticesByType[t] }

// CountEdgesOfType returns the number of edges with the given type.
func (g *Graph) CountEdgesOfType(t string) int { return g.edgesByType[t] }

// Vertices calls fn for every vertex until fn returns false.
func (g *Graph) Vertices(fn func(*Vertex) bool) {
	for _, r := range g.vertices {
		if !fn(&r.Vertex) {
			return
		}
	}
}

// Edges calls fn for every edge until fn returns false. fn must not add or
// remove edges.
func (g *Graph) Edges(fn func(*Edge) bool) {
	for _, s := range g.edges.slots {
		if s != 0 && !fn(g.records.at(s-1)) {
			return
		}
	}
}

// String summarizes the graph size.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d, vertexTypes=%d, edgeTypes=%d)",
		len(g.vertices), g.edges.n, len(g.verticesByType), len(g.edgesByType))
}
