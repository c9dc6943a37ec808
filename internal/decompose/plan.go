// Package decompose implements StreamWorks query planning (paper §4.1): it
// partitions a query graph into small, selective search primitives and
// arranges them into a join tree. The tree is the blueprint from which the
// runtime SJ-Tree (internal/sjtree) is instantiated: leaves are the
// primitives searched locally as edges arrive, internal nodes are joins of
// their children, and the root covers the whole query graph.
//
// Several strategies are provided so the plan-quality experiment of the
// paper's Fig. 7 (the same query tracked under different SJ-Trees) can be
// reproduced: selectivity-ordered left-deep decomposition (the paper's
// approach), frequency-blind lazy (two-edge primitives) and eager
// (single-edge primitives) decompositions, and a balanced bisection tree.
package decompose

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/streamworks/streamworks/internal/query"
)

// Node is one node of a decomposition plan. Leaves carry a primitive (a
// small connected set of pattern edges); internal nodes cover the union of
// their children and record the cut vertices on which their children join.
type Node struct {
	// Edges is the set of pattern edges covered by the subtree rooted here,
	// sorted ascending.
	Edges []query.EdgeID
	// Left and Right are nil for leaves.
	Left  *Node
	Right *Node
	// CutVertices are the pattern vertices shared by the left and right
	// children (internal nodes only). Matches are hash-partitioned on the
	// projection onto these vertices, which is the paper's cut-subgraph.
	CutVertices []query.VertexID
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Plan is a complete decomposition of a query graph.
type Plan struct {
	Query    *query.Graph
	Root     *Node
	Strategy Strategy
}

// Validation errors returned by Plan.Validate.
var (
	// ErrPlanEmpty is returned when the plan has no root.
	ErrPlanEmpty = errors.New("decompose: plan has no root")
	// ErrPlanCoverage is returned when the root does not cover the whole query.
	ErrPlanCoverage = errors.New("decompose: root does not cover all query edges")
	// ErrPlanOverlap is returned when the children of a node overlap or do
	// not partition the parent.
	ErrPlanOverlap = errors.New("decompose: node edges are not the disjoint union of its children")
	// ErrPlanDisconnected is returned when a node's edge set is not connected.
	ErrPlanDisconnected = errors.New("decompose: node subgraph is not connected")
	// ErrPlanDegenerate is returned when an internal node has only one child.
	ErrPlanDegenerate = errors.New("decompose: internal node must have exactly two children")
)

// Validate checks the SJ-Tree structural properties from the paper:
// Property 1 (the root's subgraph is the query graph), Property 2 (every
// internal node is the join of its two children, i.e. its edge set is the
// disjoint union of theirs) and the implementation requirements that every
// node's subgraph is connected and the tree is binary.
func (p *Plan) Validate() error {
	if p == nil || p.Root == nil {
		return ErrPlanEmpty
	}
	if len(p.Root.Edges) != p.Query.NumEdges() {
		return fmt.Errorf("%w: root has %d of %d edges", ErrPlanCoverage, len(p.Root.Edges), p.Query.NumEdges())
	}
	return p.validateNode(p.Root)
}

func (p *Plan) validateNode(n *Node) error {
	if len(n.Edges) == 0 {
		return fmt.Errorf("%w: empty node", ErrPlanCoverage)
	}
	if !p.Query.SubsetConnected(n.Edges) {
		return fmt.Errorf("%w: edges %v", ErrPlanDisconnected, n.Edges)
	}
	if n.IsLeaf() {
		return nil
	}
	if n.Left == nil || n.Right == nil {
		return ErrPlanDegenerate
	}
	union := make(map[query.EdgeID]int)
	for _, e := range n.Left.Edges {
		union[e]++
	}
	for _, e := range n.Right.Edges {
		union[e]++
	}
	if len(union) != len(n.Edges) {
		return fmt.Errorf("%w: node %v vs children %v+%v", ErrPlanOverlap, n.Edges, n.Left.Edges, n.Right.Edges)
	}
	for _, e := range n.Edges {
		if union[e] != 1 {
			return fmt.Errorf("%w: edge %d", ErrPlanOverlap, e)
		}
	}
	if err := p.validateNode(n.Left); err != nil {
		return err
	}
	return p.validateNode(n.Right)
}

// Leaves returns the leaf nodes in left-to-right order; these are the search
// primitives whose local searches the engine runs for every arriving edge.
func (p *Plan) Leaves() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(p.Root)
	return out
}

// NumNodes returns the total number of nodes in the plan tree.
func (p *Plan) NumNodes() int {
	var count func(n *Node) int
	count = func(n *Node) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.Left) + count(n.Right)
	}
	return count(p.Root)
}

// Depth returns the height of the plan tree (a single leaf has depth 1).
func (p *Plan) Depth() int {
	var depth func(n *Node) int
	depth = func(n *Node) int {
		if n == nil {
			return 0
		}
		l, r := depth(n.Left), depth(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return depth(p.Root)
}

// String renders the plan as an indented tree, annotating each node with its
// pattern edges (as "src -[type]-> dst") and internal nodes with their cut
// vertices. The swbench tool prints this for the plan-comparison experiment.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %s strategy=%s nodes=%d depth=%d\n", p.Query.Name(), p.Strategy, p.NumNodes(), p.Depth())
	var walk func(n *Node, indent int)
	walk = func(n *Node, indent int) {
		if n == nil {
			return
		}
		pad := strings.Repeat("  ", indent)
		kind := "join"
		if n.IsLeaf() {
			kind = "leaf"
		}
		fmt.Fprintf(&sb, "%s%s %s", pad, kind, p.describeEdges(n.Edges))
		if !n.IsLeaf() {
			names := make([]string, len(n.CutVertices))
			for i, v := range n.CutVertices {
				names[i] = p.Query.Vertex(v).Name
			}
			fmt.Fprintf(&sb, "  cut={%s}", strings.Join(names, ","))
		}
		sb.WriteByte('\n')
		walk(n.Left, indent+1)
		walk(n.Right, indent+1)
	}
	walk(p.Root, 1)
	return sb.String()
}

func (p *Plan) describeEdges(edges []query.EdgeID) string {
	parts := make([]string, 0, len(edges))
	for _, eid := range edges {
		e := p.Query.Edge(eid)
		label := e.Type
		if label == "" {
			label = "*"
		}
		arrow := "->"
		if e.AnyDirection {
			arrow = "--"
		}
		parts = append(parts, fmt.Sprintf("%s-[%s]%s%s",
			p.Query.Vertex(e.Source).Name, label, arrow, p.Query.Vertex(e.Target).Name))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// newLeaf builds a leaf node with sorted edges.
func newLeaf(edges []query.EdgeID) *Node {
	sorted := append([]query.EdgeID(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &Node{Edges: sorted}
}

// newJoin builds an internal node joining l and r, computing the union edge
// set and the cut vertices shared by the two children.
func newJoin(q *query.Graph, l, r *Node) *Node {
	edges := append(append([]query.EdgeID(nil), l.Edges...), r.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	leftVerts := q.EndpointsOf(l.Edges)
	rightVerts := make(map[query.VertexID]struct{})
	for _, v := range q.EndpointsOf(r.Edges) {
		rightVerts[v] = struct{}{}
	}
	var cut []query.VertexID
	for _, v := range leftVerts {
		if _, ok := rightVerts[v]; ok {
			cut = append(cut, v)
		}
	}
	return &Node{Edges: edges, Left: l, Right: r, CutVertices: cut}
}
