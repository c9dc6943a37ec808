package graph

import "fmt"

// The graph recycles what its insert/expire cycle would otherwise allocate
// per edge, within these bounds:
//
//   - records: edge records (48 B) and vertex records (40 B) live in chunks
//     of 256, addressed by int32 handle (edges.go). An edge record names its
//     endpoints by vertex handle and its type by type table index. The
//     handle of an expired edge, or of a vertex left with no edge, is reused
//     for a new one, so the chunks are kept up to the peak number of records
//     held at once. One ID table per kind (ID → handle) is at most half full
//     and only grows.
//   - incidence and expiry: a vertex's out- and in-list, and the Dynamic's
//     expiry queue, are chains threaded through the edge records, so they
//     take no memory of their own.
//   - types: one table interns the edge and vertex types and counts each;
//     a type that no vertex and no edge of the window has any more is
//     dropped and its index reused.

// Graph is an in-memory multi-relational property multigraph. Each vertex
// has one record that heads its incidence lists, split by direction and in
// arrival order; per-type counts serve the query planner.
// A Dynamic is its only writer, so a vertex is in the graph exactly while an
// edge in it touches the vertex.
//
// Graph is not safe for concurrent mutation; the continuous engine serializes
// updates per stream partition. Read-only concurrent access after loading is
// safe.
type Graph struct {
	vertices  vertexRecords
	vertexIDs idTable // the handles of the live vertices, by ID
	edges     edgeRecords
	edgeIDs   idTable // the handles of the live edges, by ID
	types     typeTable

	// mutations counts the changes to the graph's vertices, edges and vertex
	// types (see Mutations).
	mutations uint64
}

// New constructs an empty graph. Only a Dynamic adds to a graph (NewDynamic
// builds its own); an empty one serves a reader that has seen no edge yet.
func New() *Graph { return &Graph{} }

// NumVertices returns the number of vertices currently in the graph.
func (g *Graph) NumVertices() int { return g.vertexIDs.n }

// NumEdges returns the number of edges currently in the graph.
func (g *Graph) NumEdges() int { return g.edgeIDs.n }

// Mutations returns how many times a vertex or edge has been added or
// removed, or a vertex retyped. A reader that derives something from the
// graph can keep it until the count moves; attribute merges do not count.
func (g *Graph) Mutations() uint64 { return g.mutations }

// findVertex returns the handle of vertex id, or -1.
func (g *Graph) findVertex(id VertexID) int32 { return g.vertexIDs.find(&g.vertices, uint64(id)) }

// upsert inserts vertex id or updates its record: a non-empty type
// overwrites the stored one and the attributes are merged. It returns the
// record's handle.
func (g *Graph) upsert(id VertexID, typ string, attrs Attributes) int32 {
	h := g.findVertex(id)
	if h < 0 {
		h = g.vertices.alloc()
		r := g.vertices.at(h)
		*r = vertexRecord{id: id, attrs: attrs, typ: g.types.intern(typ)}
		g.types.vertices[r.typ]++
		g.vertexIDs.insert(&g.vertices, h)
		g.mutations++
		return h
	}
	r := g.vertices.at(h)
	if typ != "" && typ != g.types.names[r.typ] {
		g.mutations++
		old := r.typ
		r.typ = g.types.intern(typ)
		g.types.vertices[r.typ]++
		g.types.vertices[old]--
		g.types.drop(old)
	}
	// Streams repeat endpoint metadata on every edge; skip the
	// copy-on-write merge entirely when it would change nothing, which is
	// the overwhelmingly common case.
	if len(attrs) > 0 && !r.attrs.Covers(attrs) {
		r.attrs = r.attrs.Merge(attrs)
	}
	return h
}

// vertex builds the vertex of handle h from its record.
func (g *Graph) vertex(h int32) Vertex {
	r := g.vertices.at(h)
	return Vertex{ID: r.id, Type: g.types.names[r.typ], Attrs: r.attrs}
}

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) (Vertex, bool) {
	if h := g.findVertex(id); h >= 0 {
		return g.vertex(h), true
	}
	return Vertex{}, false
}

// edge builds the edge of handle h from its record.
func (g *Graph) edge(h int32) Edge {
	r := g.edges.at(h)
	return Edge{
		ID:        r.id,
		Source:    g.vertices.at(r.src).id,
		Target:    g.vertices.at(r.dst).id,
		Type:      g.types.names[r.typ],
		Timestamp: r.ts,
		Attrs:     r.attrs,
	}
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) (Edge, bool) {
	if h := g.edgeIDs.find(&g.edges, uint64(id)); h >= 0 {
		return g.edge(h), true
	}
	return Edge{}, false
}

// admissible rejects an edge with a reserved or duplicate ID before anything
// about it is stored.
func (g *Graph) admissible(e *Edge) error {
	if e.ID == ReservedEdgeID || e.Source == ReservedVertexID || e.Target == ReservedVertexID {
		return &EdgeError{ID: e.ID, Err: ErrReservedID}
	}
	if g.edgeIDs.find(&g.edges, uint64(e.ID)) >= 0 {
		return &EdgeError{ID: e.ID, Err: ErrDuplicateEdge}
	}
	return nil
}

// insert stores an admissible edge between the vertex records of handles
// src and dst and returns its handle.
func (g *Graph) insert(e *Edge, src, dst int32) int32 {
	typ := g.types.intern(e.Type)
	g.types.edges[typ]++
	h := g.edges.alloc()
	*g.edges.at(h) = edgeRecord{id: e.ID, ts: e.Timestamp, attrs: e.Attrs, src: src, dst: dst, typ: typ}
	g.edgeIDs.insert(&g.edges, h)
	g.link(src, dirOut, h)
	g.link(dst, dirIn, h)
	g.mutations++
	return h
}

// addStreamEdge upserts the endpoints of se and adds its edge, returning
// the edge's handle. An edge that is rejected changes nothing: its endpoints
// are neither added nor updated.
func (g *Graph) addStreamEdge(se *StreamEdge) (int32, error) {
	if err := g.admissible(&se.Edge); err != nil {
		return -1, err
	}
	src := g.upsert(se.Edge.Source, se.SourceType, se.SourceAttrs)
	dst := g.upsert(se.Edge.Target, se.TargetType, se.TargetAttrs)
	return g.insert(&se.Edge, src, dst), nil
}

// remove deletes the edge of handle h and returns the handles of its
// endpoints. The record keeps the edge's ID, endpoints, type and timestamp
// but drops its attribute map; the handle is not released.
func (g *Graph) remove(h int32) (src, dst int32) {
	r := g.edges.at(h)
	g.edgeIDs.delete(&g.edges, uint64(r.id))
	g.unlink(r.src, dirOut, h)
	g.unlink(r.dst, dirIn, h)
	g.types.edges[r.typ]--
	g.types.drop(r.typ)
	r.attrs = nil
	g.mutations++
	return r.src, r.dst
}

// link appends edge h to vertex v's list in direction dir.
func (g *Graph) link(v int32, dir int, h int32) {
	c := &g.vertices.at(v).lists[dir]
	if c.last == 0 {
		c.first = h + 1
	} else {
		g.edges.at(c.last - 1).next[dir] = h + 1
	}
	c.last = h + 1
}

// unlink takes edge h out of vertex v's list in direction dir, keeping the
// others in order. It walks from the front to h: edges leave the window in
// about the order they arrived, so the walk is short where removal is
// common.
func (g *Graph) unlink(v int32, dir int, h int32) {
	c := &g.vertices.at(v).lists[dir]
	link, prev := &c.first, int32(0) // link holds h+1 once the walk ends
	for *link != h+1 {
		if *link == 0 {
			panic("graph: edge missing from its incidence list")
		}
		prev = *link
		link = &g.edges.at(prev - 1).next[dir]
	}
	*link = g.edges.at(h).next[dir]
	if c.last == h+1 {
		c.last = prev
	}
}

// removeIfIsolated removes the vertex of handle h if it has no incident
// edges. The record is zeroed and its handle released for reuse.
func (g *Graph) removeIfIsolated(h int32) {
	r := g.vertices.at(h)
	if r.lists[dirOut].first != 0 || r.lists[dirIn].first != 0 {
		return
	}
	g.vertexIDs.delete(&g.vertices, uint64(r.id))
	g.types.vertices[r.typ]--
	g.types.drop(r.typ)
	g.mutations++
	*r = vertexRecord{}
	g.vertices.release(h)
}

// EdgeList is a cursor over a vertex's out- or in-edges, in the order they
// were added: an edge that arrived out of timestamp order keeps its arrival
// position, and expiry leaves the others in order. A cursor is valid only
// until the next Dynamic.Apply or Dynamic.AdvanceTo: the graph reuses the
// handles of expired edges, so a cursor held across a mutation may follow a
// reused handle into another vertex's list. The edges it returns are values,
// built from the records, and stay valid.
type EdgeList struct {
	g    *Graph
	next int32 // handle+1 of the edge Next returns, 0 past the end
	dir  int
}

// edgeList returns a cursor at the front of vertex id's list in direction
// dir, an empty one when the vertex is not in the graph.
func (g *Graph) edgeList(id VertexID, dir int) EdgeList {
	if h := g.findVertex(id); h >= 0 {
		return EdgeList{g: g, next: g.vertices.at(h).lists[dir].first, dir: dir}
	}
	return EdgeList{}
}

// Next returns the next edge in arrival order, or false past the end.
func (l *EdgeList) Next() (Edge, bool) {
	if l.next == 0 {
		return Edge{}, false
	}
	h := l.next - 1
	l.next = l.g.edges.at(h).next[l.dir]
	return l.g.edge(h), true
}

// OutEdges returns the edges leaving v in the order they were added.
func (g *Graph) OutEdges(v VertexID) EdgeList { return g.edgeList(v, dirOut) }

// InEdges returns the edges entering v in the order they were added.
func (g *Graph) InEdges(v VertexID) EdgeList { return g.edgeList(v, dirIn) }

// CountVerticesOfType returns the number of vertices with the given type.
func (g *Graph) CountVerticesOfType(t string) int { return g.types.count(g.types.vertices, t) }

// CountEdgesOfType returns the number of edges with the given type.
func (g *Graph) CountEdgesOfType(t string) int { return g.types.count(g.types.edges, t) }

// Vertices calls fn for every vertex until fn returns false. The vertex it
// is passed is valid only during the call: copy it to keep it.
func (g *Graph) Vertices(fn func(*Vertex) bool) {
	var v Vertex
	for _, s := range g.vertexIDs.slots {
		if s == 0 {
			continue
		}
		if v = g.vertex(s - 1); !fn(&v) {
			return
		}
	}
}

// Edges calls fn for every edge until fn returns false. fn must not add or
// remove edges. The edge it is passed is valid only during the call: copy
// it to keep it.
func (g *Graph) Edges(fn func(*Edge) bool) {
	var e Edge
	for _, s := range g.edgeIDs.slots {
		if s == 0 {
			continue
		}
		if e = g.edge(s - 1); !fn(&e) {
			return
		}
	}
}

// String summarizes the graph size.
func (g *Graph) String() string {
	var vertexTypes, edgeTypes int
	for i := range g.types.names {
		if g.types.vertices[i] > 0 {
			vertexTypes++
		}
		if g.types.edges[i] > 0 {
			edgeTypes++
		}
	}
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d, vertexTypes=%d, edgeTypes=%d)",
		g.vertexIDs.n, g.edgeIDs.n, vertexTypes, edgeTypes)
}
