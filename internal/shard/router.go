package shard

import (
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// queryRouting is the routing analysis of one registered query.
type queryRouting struct {
	// hubFree is true when no pattern vertex is incident to every pattern
	// edge. Matches of such queries are not contained in any single vertex
	// neighborhood, so endpoint partitioning alone could split them across
	// shards; their constrained edge types must be broadcast instead.
	hubFree bool
	// types are the pattern edge types of a hub-free query ("" = wildcard).
	types []string
}

// router decides which shards receive each stream edge.
//
// The base policy is endpoint hashing: an edge goes to the shards owning its
// source and target vertices, which keeps every vertex's full neighborhood on
// one shard. Matches of queries with a hub vertex (one incident to every
// pattern edge — all the paper's Fig. 3 cyber patterns qualify) always lie
// inside the neighborhood of the data vertex bound to the hub, so endpoint
// routing finds them. For hub-free queries the router falls back to
// broadcasting the edge types the query constrains (or everything, if it has
// a wildcard edge) to all shards.
type router struct {
	shards int
	// wildcard counts registered hub-free queries with an untyped pattern
	// edge; while positive, every edge is broadcast.
	wildcard int
	// broadcastTypes refcounts edge types required by hub-free queries.
	broadcastTypes map[string]int
	// byQuery remembers each registration's analysis for removal.
	byQuery map[string]queryRouting
	// all is the cached [0..shards) destination list used for broadcasts.
	all []int
	// pair is scratch space for endpoint-routed destinations, reused across
	// route calls (the router is driven by a single goroutine); callers must
	// not retain the returned slice past the next call.
	pair [2]int
}

func newRouter(shards int) *router {
	r := &router{
		shards:         shards,
		broadcastTypes: make(map[string]int),
		byQuery:        make(map[string]queryRouting),
		all:            make([]int, shards),
	}
	for i := range r.all {
		r.all[i] = i
	}
	return r
}

// hasHubVertex reports whether some pattern vertex touches every pattern
// edge of q.
func hasHubVertex(q *query.Graph) bool {
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
			return true
		}
	}
	return len(edges) == 0
}

// add records the routing requirements of q, registered as name.
func (r *router) add(name string, q *query.Graph) {
	qr := queryRouting{hubFree: !hasHubVertex(q)}
	if qr.hubFree {
		for _, qe := range q.Edges() {
			qr.types = append(qr.types, qe.Type)
			if qe.Type == "" {
				r.wildcard++
			} else {
				r.broadcastTypes[qe.Type]++
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
		if r.broadcastTypes[t]--; r.broadcastTypes[t] <= 0 {
			delete(r.broadcastTypes, t)
		}
	}
}

// route returns the destination shards for a stream edge. The returned
// slice is only valid until the next call.
func (r *router) route(se graph.StreamEdge) []int {
	if r.wildcard > 0 || r.broadcastTypes[se.Edge.Type] > 0 {
		return r.all
	}
	a := ownerOf(se.Edge.Source, r.shards)
	b := ownerOf(se.Edge.Target, r.shards)
	r.pair[0] = a
	if a == b {
		return r.pair[:1]
	}
	r.pair[1] = b
	return r.pair[:2]
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
