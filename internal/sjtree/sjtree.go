// Package sjtree implements the Subgraph Join Tree (SJ-Tree), the central
// data structure of StreamWorks (paper §3.2).
//
// An SJ-Tree is a binary tree instantiated from a decomposition plan:
//
//   - every node corresponds to a subgraph of the query graph;
//   - the root's subgraph is the query graph itself (Property 1);
//   - every internal node's subgraph is the join of its children's
//     subgraphs (Property 2);
//   - every node maintains the collection of data subgraphs matching its
//     query subgraph (Property 3);
//   - every internal node keeps the cut subgraph — the intersection of its
//     children's subgraphs — and its children's match collections are
//     hash-partitioned on their projection onto the cut vertices so that a
//     sibling join is a hash lookup instead of a scan (Property 4).
//
// As leaf matches are produced by the per-edge local search, Insert pushes
// them into the tree; whenever a match and a sibling match agree on the cut
// projection they are joined and the larger match is inserted one level up,
// until complete matches emerge at the root within the query's time window.
//
// The engine does not run Trees: it folds every query's plan into the shared
// evaluation DAG of internal/mqo, which stores its partials as rows of its
// own. Tree stays as the single-query reference the DAG is checked and
// measured against.
package sjtree

import (
	"fmt"
	"strings"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
)

// Node is a runtime SJ-Tree node. It mirrors one decomposition plan node and
// owns the collection of (partial) matches of that node's query subgraph.
type Node struct {
	plan   *decompose.Node
	parent *Node
	left   *Node
	right  *Node

	// matches stores this node's match collection, hash-partitioned by the
	// projection of each match onto the parent's cut vertices (Property 4),
	// keyed on the comparable integer projection key rather than a string.
	// The root does not store matches; complete matches are emitted.
	matches map[match.ProjectionKey][]*match.Match
	// signatures deduplicates stored matches by their bound data-edge set,
	// keyed on the match's cached 64-bit edge-set hash. A mirrored node
	// keeps none.
	signatures sigSet
	// mirrored marks a node whose subgraph is two vertices joined only by
	// undirected edges: a match and its mirror, the vertices swapped, bind
	// the same edges. Local search finds each once, and a join on either
	// vertex reads both, so both are stored, unchecked against the
	// edge-set table; the root's emitted set still sends the pair once.
	mirrored bool
	stored   int
	inserted uint64

	// Live per-node join statistics (paper §3.2's sibling hash-joins), the
	// observed side of the estimator-validation loop: joinAttempts counts
	// sibling matches probed in the cut-projection partition, joinHits the
	// probes that produced a joined match one level up, and pruned the
	// stored matches this node has discarded. Plain ints — nodes are owned
	// by the engine's driver goroutine like the rest of the tree.
	joinAttempts uint64
	joinHits     uint64
	pruned       uint64
}

// Edges returns the pattern edges covered by this node.
func (n *Node) Edges() []query.EdgeID { return n.plan.Edges }

// IsLeaf reports whether the node is a search primitive.
func (n *Node) IsLeaf() bool { return n.left == nil && n.right == nil }

// IsRoot reports whether the node is the root of its tree.
func (n *Node) IsRoot() bool { return n.parent == nil }

// Stored returns the number of matches currently held by the node.
func (n *Node) Stored() int { return n.stored }

// Partitions returns the number of live cut-projection hash partitions of
// the node's match collection — the fan-out of a sibling join probe.
func (n *Node) Partitions() int { return len(n.matches) }

// JoinAttempts returns the cumulative number of sibling matches probed when
// inserting into this node.
func (n *Node) JoinAttempts() uint64 { return n.joinAttempts }

// JoinHits returns how many of those probes joined successfully.
func (n *Node) JoinHits() uint64 { return n.joinHits }

// PrunedTotal returns the cumulative number of stored matches pruned from
// this node.
func (n *Node) PrunedTotal() uint64 { return n.pruned }

// CutVertices returns the cut vertices of the node (internal nodes only).
func (n *Node) CutVertices() []query.VertexID { return n.plan.CutVertices }

func (n *Node) sibling() *Node {
	if n.parent == nil {
		return nil
	}
	if n.parent.left == n {
		return n.parent.right
	}
	return n.parent.left
}

// projectionVertices returns the vertices on which this node's matches are
// keyed: the parent's cut vertices. Root children share the root's cut.
func (n *Node) projectionVertices() []query.VertexID {
	if n.parent == nil {
		return nil
	}
	return n.parent.plan.CutVertices
}

// Tree is a runtime SJ-Tree for a single registered query.
type Tree struct {
	q      *query.Graph
	plan   *decompose.Plan
	root   *Node
	nodes  []*Node
	leaves []*Node
	window time.Duration

	emitted        EmittedSet
	duplicateDrops uint64
	windowDrops    uint64
	prunedTotal    uint64
}

// New instantiates a runtime SJ-Tree from a decomposition plan. The query's
// time window bounds the temporal span of reported matches; partial matches
// that can no longer satisfy it are dropped during joins and pruning.
func New(plan *decompose.Plan) (*Tree, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("sjtree: invalid plan: %w", err)
	}
	t := &Tree{
		q:      plan.Query,
		plan:   plan,
		window: plan.Query.Window(),
	}
	t.root = t.build(plan.Root, nil)
	return t, nil
}

func (t *Tree) build(pn *decompose.Node, parent *Node) *Node {
	n := &Node{
		plan:     pn,
		parent:   parent,
		matches:  make(map[match.ProjectionKey][]*match.Match),
		mirrored: mirrored(t.q, pn.Edges),
	}
	t.nodes = append(t.nodes, n)
	if pn.Left != nil {
		n.left = t.build(pn.Left, n)
	}
	if pn.Right != nil {
		n.right = t.build(pn.Right, n)
	}
	if n.IsLeaf() {
		t.leaves = append(t.leaves, n)
	}
	return n
}

// mirrored reports whether edges span two vertices of q joined only by
// undirected edges (Node.mirrored).
func mirrored(q *query.Graph, edges []query.EdgeID) bool {
	first := q.Edge(edges[0])
	for _, id := range edges {
		e := q.Edge(id)
		if !e.AnyDirection || e.Source == e.Target ||
			!(e.Source == first.Source && e.Target == first.Target || e.Source == first.Target && e.Target == first.Source) {
			return false
		}
	}
	return true
}

// Query returns the query graph the tree answers.
func (t *Tree) Query() *query.Graph { return t.q }

// Plan returns the decomposition plan the tree was built from.
func (t *Tree) Plan() *decompose.Plan { return t.plan }

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Leaves returns the leaf nodes (search primitives) in plan order.
func (t *Tree) Leaves() []*Node { return t.leaves }

// Insert adds a match of node n's query subgraph to the tree and propagates
// joins upward. It returns the complete matches (if any) that the insertion
// produced at the root. Matches whose temporal span already exceeds the
// query window are dropped immediately.
func (t *Tree) Insert(n *Node, m *match.Match) []*match.Match {
	if n == nil || m == nil {
		return nil
	}
	if !m.WithinWindow(t.window) {
		t.windowDrops++
		return nil
	}
	if n.IsRoot() {
		return t.acceptComplete(m)
	}
	if !n.mirrored && !n.signatures.add(m) {
		t.duplicateDrops++
		return nil
	}
	key := m.Projection(n.projectionVertices())
	n.matches[key] = append(n.matches[key], m)
	n.stored++
	n.inserted++

	sib := n.sibling()
	if sib == nil {
		return nil
	}
	var completed []*match.Match
	for _, sm := range sib.matches[key] {
		n.joinAttempts++
		joined := m.Join(sm)
		if joined == nil {
			continue
		}
		n.joinHits++
		completed = append(completed, t.Insert(n.parent, joined)...)
	}
	return completed
}

// acceptComplete validates, deduplicates and emits a complete match.
func (t *Tree) acceptComplete(m *match.Match) []*match.Match {
	if !m.Complete(t.q) {
		// A root insertion that does not cover the query indicates a plan
		// bug; drop it rather than report a wrong result.
		return nil
	}
	if !t.emitted.Add(m) {
		t.duplicateDrops++
		return nil
	}
	return []*match.Match{m}
}

// pruneWhere removes every stored partial match for which drop returns
// true, in one scan over all non-root nodes. Removal uses the match's
// cached edge-set hash — no signature strings are rebuilt.
func (t *Tree) pruneWhere(drop func(*match.Match) bool) int {
	removed := 0
	for _, n := range t.nodes {
		if n.IsRoot() {
			continue
		}
		before := n.stored
		// Map order is harmless: drop is a pure predicate, so each match is
		// kept or removed on its own.
		for key, list := range n.matches {
			kept := list[:0]
			for _, m := range list {
				if !drop(m) {
					kept = append(kept, m)
				}
			}
			if len(kept) == 0 {
				delete(n.matches, key)
			} else {
				n.matches[key] = kept
			}
			n.stored -= len(list) - len(kept)
		}
		if n.stored == before {
			continue
		}
		n.pruned += uint64(before - n.stored)
		removed += before - n.stored
		if n.mirrored {
			continue
		}
		n.signatures.reset(n.stored)
		// Map order is harmless: the kept matches are distinct, so the set is
		// the same whatever order they go back in.
		for _, list := range n.matches {
			for _, m := range list {
				n.signatures.add(m)
			}
		}
	}
	t.prunedTotal += uint64(removed)
	return removed
}

// Prune removes partial matches whose earliest edge is older than cutoff.
// Such matches can never participate in a future complete match within the
// window, because any future edge has a timestamp at or beyond the current
// watermark. It returns the number of matches removed. The engine calls this
// as the dynamic graph's window slides.
func (t *Tree) Prune(cutoff graph.Timestamp) int {
	return t.pruneWhere(func(m *match.Match) bool {
		return m.HasSpan() && m.Span.Start < cutoff
	})
}

// PruneExpiredEdges removes partial matches binding any of the given data
// edges in a single scan, so a burst of expiries costs one pass over the
// stored matches instead of one per edge. Only the benchmark harness's
// private trees still use it, draining their window graph's expiry callback
// through it; the engine's partials leave the window by span.
func (t *Tree) PruneExpiredEdges(ids map[graph.EdgeID]struct{}) int {
	if len(ids) == 0 {
		return 0
	}
	return t.pruneWhere(func(m *match.Match) bool {
		found := false
		m.ForEachEdge(func(_ query.EdgeID, de graph.EdgeID) bool {
			if _, ok := ids[de]; ok {
				found = true
				return false
			}
			return true
		})
		return found
	})
}

// PartialMatchCount returns the total number of matches stored across all
// non-root nodes: the memory-pressure metric of the plan-quality experiments.
func (t *Tree) PartialMatchCount() int {
	total := 0
	for _, n := range t.nodes {
		if !n.IsRoot() {
			total += n.stored
		}
	}
	return total
}

// CompleteCount returns the number of distinct complete matches emitted.
func (t *Tree) CompleteCount() uint64 { return t.emitted.Total() }

// Stats summarizes the tree's runtime counters.
type Stats struct {
	Strategy       decompose.Strategy
	NodeCount      int
	LeafCount      int
	PartialMatches int
	CompleteCount  uint64
	DuplicateDrops uint64
	WindowDrops    uint64
	PrunedTotal    uint64
	PerNodeStored  []NodeStats
}

// NodeStats reports one node's stored and cumulative match counts together
// with its live join statistics.
type NodeStats struct {
	Edges    []query.EdgeID
	IsLeaf   bool
	Stored   int
	Inserted uint64
	// Partitions is the current number of cut-projection hash partitions;
	// JoinAttempts/JoinHits count sibling probes and successful joins, and
	// Pruned counts matches discarded from this node.
	Partitions   int
	JoinAttempts uint64
	JoinHits     uint64
	Pruned       uint64
}

// Stats returns a snapshot of the tree's counters, with per-node detail in
// plan (pre-order) order.
func (t *Tree) Stats() Stats {
	s := Stats{
		Strategy:       t.plan.Strategy,
		NodeCount:      len(t.nodes),
		LeafCount:      len(t.leaves),
		PartialMatches: t.PartialMatchCount(),
		CompleteCount:  t.emitted.Total(),
		DuplicateDrops: t.duplicateDrops,
		WindowDrops:    t.windowDrops,
		PrunedTotal:    t.prunedTotal,
	}
	for _, n := range t.nodes {
		s.PerNodeStored = append(s.PerNodeStored, NodeStats{
			Edges:        n.Edges(),
			IsLeaf:       n.IsLeaf(),
			Stored:       n.stored,
			Inserted:     n.inserted,
			Partitions:   n.Partitions(),
			JoinAttempts: n.joinAttempts,
			JoinHits:     n.joinHits,
			Pruned:       n.pruned,
		})
	}
	return s
}

// String renders the tree with per-node stored counts, in the spirit of the
// paper's Fig. 7 where each SJ-Tree is shown next to its tracked matches.
func (t *Tree) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SJ-Tree(%s, strategy=%s, window=%s, partials=%d, complete=%d)\n",
		t.q.Name(), t.plan.Strategy, t.window, t.PartialMatchCount(), t.emitted.Total())
	var walk func(n *Node, indent int)
	walk = func(n *Node, indent int) {
		if n == nil {
			return
		}
		kind := "join"
		if n.IsLeaf() {
			kind = "leaf"
		}
		if n.IsRoot() {
			kind = "root"
		}
		fmt.Fprintf(&sb, "%s%s edges=%v stored=%d inserted=%d\n",
			strings.Repeat("  ", indent), kind, n.Edges(), n.stored, n.inserted)
		walk(n.left, indent+1)
		walk(n.right, indent+1)
	}
	walk(t.root, 1)
	return sb.String()
}
