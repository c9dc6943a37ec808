package shard

import (
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// noHub is the hub of a query that has none.
const noHub query.VertexID = -1

// queryRouting is the routing analysis of one registered query.
type queryRouting struct {
	// hub is the first pattern vertex, in q.Vertices() order, incident to
	// every pattern edge, or noHub. A match of a hub query lies in the
	// neighbourhood of the data vertex bound to the hub, which endpoint
	// routing keeps whole on that vertex's owner. A match of a hub-free
	// query can span partitions, so the query lives on shard 0 alone and
	// shard 0 is sent every edge of its types.
	hub query.VertexID
	// types are the pattern edge types of a hub-free query ("" = wildcard).
	types []string
}

// router decides which shards receive each stream edge.
//
// An edge goes to the shards owning its source and target vertices, which
// keeps every vertex's full neighbourhood on one shard. That is all a query
// with a hub vertex needs (all the paper's Fig. 3 cyber patterns have one).
// An edge of a type some hub-free query constrains — any edge, if one has a
// wildcard edge — also goes to shard 0, the home of every hub-free query.
type router struct {
	shards int
	// wildcard counts registered hub-free queries with an untyped pattern
	// edge; while positive, every edge also goes to shard 0.
	wildcard int
	// homeTypes refcounts edge types required by hub-free queries.
	homeTypes map[string]int
	// byQuery remembers each registration's analysis.
	byQuery map[string]queryRouting
	// dests is scratch space for the destinations, reused across route
	// calls (the router is driven by a single goroutine); callers must not
	// retain the returned slice past the next call.
	dests [3]int
}

func newRouter(shards int) *router {
	return &router{
		shards:    shards,
		homeTypes: make(map[string]int),
		byQuery:   make(map[string]queryRouting),
	}
}

// HasHub reports whether some vertex of q touches every edge of q: only
// such a query can register once the engine has routed edges
// (ErrBroadcastRequired).
func HasHub(q *query.Graph) bool { return hubOf(q) != noHub }

// hubOf returns the first pattern vertex of q, in q.Vertices() order, that
// touches every pattern edge, or noHub.
func hubOf(q *query.Graph) query.VertexID {
	edges := q.Edges()
	for _, v := range q.Vertices() {
		hub := true
		for i := range edges {
			if edges[i].Source != v.ID && edges[i].Target != v.ID {
				hub = false
				break
			}
		}
		if hub {
			return v.ID
		}
	}
	return noHub
}

// add records the routing requirements of q, registered as name.
func (r *router) add(name string, q *query.Graph) {
	qr := queryRouting{hub: hubOf(q)}
	if qr.hub == noHub {
		for _, qe := range q.Edges() {
			qr.types = append(qr.types, qe.Type)
			if qe.Type == "" {
				r.wildcard++
			} else {
				r.homeTypes[qe.Type]++
			}
		}
	}
	r.byQuery[name] = qr
}

// remove drops a query's routing requirements after unregistration.
func (r *router) remove(name string) {
	qr, ok := r.byQuery[name]
	if !ok {
		return
	}
	delete(r.byQuery, name)
	for _, t := range qr.types {
		if t == "" {
			r.wildcard--
			continue
		}
		if r.homeTypes[t]--; r.homeTypes[t] <= 0 {
			delete(r.homeTypes, t)
		}
	}
}

// route returns the destination shards for a stream edge: its endpoint
// owners, plus shard 0 when a hub-free query needs the edge. The returned
// slice is only valid until the next call.
func (r *router) route(se graph.StreamEdge) []int {
	a := ownerOf(se.Edge.Source, r.shards)
	b := ownerOf(se.Edge.Target, r.shards)
	d := append(r.dests[:0], a)
	if b != a {
		d = append(d, b)
	}
	if a != 0 && b != 0 && (r.wildcard > 0 || r.homeTypes[se.Edge.Type] > 0) {
		d = append(d, 0)
	}
	return d
}

// FNV-1a constants (hash/fnv), inlined so the per-edge hot path avoids the
// interface-boxed hasher allocation.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// ownerOf hashes a vertex ID onto a shard with allocation-free FNV-1a over
// the ID's little-endian bytes, decorrelating the generators' sequential
// vertex IDs so partitions stay balanced.
func ownerOf(v graph.VertexID, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnvOffset64
	x := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return int(h % uint64(shards))
}
