package mqo

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/query"
)

// Attachment is one query's view of the shared DAG: the root node its plan
// resolved to, the maps translating canonical root matches into the query's
// own pattern space, the consumer group it reads the root through, and the
// per-query emission state (window, callbacks).
type Attachment struct {
	dag    *DAG
	name   string
	q      *query.Graph
	plan   *decompose.Plan
	window time.Duration

	root     *node
	group    *consumerGroup
	rootVMap []query.VertexID
	rootEMap []query.EdgeID
	// nodes lists the distinct DAG nodes realizing this plan (a plan with
	// two isomorphic subtrees resolves both to one node); leaves is the
	// leaf subset, for per-query search accounting.
	nodes  []*node
	leaves []*node

	emit       func(*match.Match)
	emitSigned func(*match.Match, string)
}

// Name returns the attachment's registration name.
func (a *Attachment) Name() string { return a.name }

// Plan returns the decomposition plan the attachment realizes.
func (a *Attachment) Plan() *decompose.Plan { return a.plan }

// LeafSearches sums the local searches of the attachment's leaf nodes. The
// counters are shared: a search seeded once for five queries counts once in
// each — the per-query number reports coverage, DAG.LocalSearches cost.
func (a *Attachment) LeafSearches() uint64 {
	var total uint64
	for _, n := range a.leaves {
		total += n.searches
	}
	return total
}

// PartialMatches sums the stored matches of the attachment's non-root
// nodes, the DAG analogue of Tree.PartialMatchCount (shared nodes count once
// per query viewing them). The root is left out even where another query's
// join reads it.
func (a *Attachment) PartialMatches() int {
	total := 0
	for _, n := range a.nodes {
		if n != a.root {
			total += n.rows.len()
		}
	}
	return total
}

// AttachOptions configures Attach.
type AttachOptions struct {
	// Emit receives every complete match in the query's own pattern space,
	// exactly once per distinct data-edge binding. The match is shared with
	// every other query of the consumer group and must not be mutated.
	Emit func(*match.Match)
	// EmitSigned, when set, is called instead of Emit and also receives the
	// match's canonical Signature, built once per consumer group.
	EmitSigned func(m *match.Match, signature string)
}

// Attach folds a query's decomposition plan into the DAG. Plan subtrees
// whose canonical signature matches an existing node are shared as-is; a
// node that gains its first parent, new or a root until now, has its rows
// backfilled from the retained window (a leaf by replaying live edges, a join
// by cross-joining its children's existing collections), so an attachment
// mid-stream starts from the same state it would have had if attached before
// the retained window began. The new root keeps no rows: nothing reads them.
//
// The query is sent every match whose last edge arrives after it attaches
// and none before. Nothing a backfill derives is delivered, to it or to
// anyone: every edge a backfill reads is already in the window, so every row
// it derives either was sent when its last edge arrived, to each member
// attached then (their plans were exact all along), or predates whoever was
// not.
func (d *DAG) Attach(name string, q *query.Graph, plan *decompose.Plan, opt AttachOptions) (*Attachment, error) {
	if d.attachment(name) != nil {
		return nil, fmt.Errorf("mqo: query %q already attached", name)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("mqo: invalid plan for %q: %w", name, err)
	}
	// The plan is built with delivery off (DAG.building), then the query
	// subscribes to its root.
	att := &Attachment{
		dag:        d,
		name:       name,
		q:          q,
		plan:       plan,
		window:     q.Window(),
		emit:       opt.Emit,
		emitSigned: opt.EmitSigned,
	}
	d.building = true
	root, rootFrag := d.build(att, plan.Query, plan.Root)
	d.building = false
	for _, n := range d.indexed {
		n.rows.unindex()
	}
	d.indexed = d.indexed[:0]
	att.root = root
	att.rootVMap = rootFrag.VertToQuery
	att.rootEMap = rootFrag.EdgeToQuery
	root.addConsumer(att)

	d.atts = append(d.atts, att)
	return att, nil
}

// build resolves one plan node to a shared DAG node, creating and
// backfilling it when no structurally identical node exists. It returns the
// node together with THIS query's canonical fragment for the subpattern —
// the node's stored fragment maps into whichever query created it, so each
// attaching query carries its own maps; equal signatures guarantee the
// canonical coordinate space is the same.
func (d *DAG) build(att *Attachment, q *query.Graph, pn *decompose.Node) (*node, *decompose.Fragment) {
	frag := decompose.Canonicalize(q, pn.Edges, att.name)
	leaf := pn.Left == nil && pn.Right == nil
	var sig string
	var ln, rn *node
	var lf, rf *decompose.Fragment
	if leaf {
		sig = "L|" + frag.Sig
	} else {
		ln, lf = d.build(att, q, pn.Left)
		rn, rf = d.build(att, q, pn.Right)
		sig = joinSig(frag, ln.sig, rn.sig, lf, rf)
	}

	if n, ok := d.nodes[sig]; ok {
		d.widen(n, att.window)
		att.addNode(n, leaf)
		return n, frag
	}

	n := &node{
		sig:     sig,
		frag:    frag,
		matcher: isomorphism.New(frag.Graph),
		rows:    newRows(frag.Graph.NumVertices(), frag.Graph.NumEdges()),
		window:  att.window,
	}
	n.mirrored = mirrored(frag.Graph)
	n.row = make([]uint64, n.rows.width)
	d.nodes[sig] = n
	d.order = append(d.order, sig)
	att.addNode(n, leaf)

	if leaf {
		// Parentless, n keeps no rows yet: its first parent derives them.
		n.found, n.yield = match.NewForQuery(frag.Graph), d.leafYield(n)
		d.addSeeds(n)
		return n, frag
	}

	// Cut vertices in parent canonical space, sorted so both links project
	// onto the identical ordered list regardless of which query's plan
	// supplied the (query-space) cut.
	cuts := make([]query.VertexID, len(pn.CutVertices))
	for i, qv := range pn.CutVertices {
		cuts[i] = frag.VertFromQuery[qv]
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	mkLink := func(child *node, cf *decompose.Fragment) *childLink {
		pos := make([]int, 0, len(cf.VertToQuery)+len(cf.EdgeToQuery))
		for _, qv := range cf.VertToQuery {
			pos = append(pos, int(frag.VertFromQuery[qv]))
		}
		for _, qe := range cf.EdgeToQuery {
			pos = append(pos, n.rows.nv+int(frag.EdgeFromQuery[qe]))
		}
		// A cut vertex lies in both children's fragments, so pos reaches it.
		childCuts := make([]query.VertexID, len(cuts))
		for i, pv := range cuts {
			childCuts[i] = query.VertexID(slices.Index(pos[:len(cf.VertToQuery)], int(pv)))
		}
		l := &childLink{child: child, pos: pos, cuts: childCuts}
		child.parents = append(child.parents, &parentLink{parent: n, link: l})
		return l
	}
	// A child with no parent until now kept no rows: it derives them once
	// linked, indexing them in n's links on the way. n has no parent yet, so
	// its backfill only indexes its children's rows; its own are derived when
	// a parent links it.
	lfresh, rfresh := len(ln.parents) == 0, len(rn.parents) == 0 && rn != ln
	n.left = mkLink(ln, lf)
	n.right = mkLink(rn, rf)
	if lfresh {
		d.backfill(ln)
	}
	if rfresh {
		d.backfill(rn)
	}
	d.backfillJoin(n)
	return n, frag
}

// backfill re-derives n's rows from the retained window, if it has a parent
// to keep them for; a join without one has its link indexes rebuilt.
func (d *DAG) backfill(n *node) {
	if n.left != nil {
		d.backfillJoin(n)
	} else if len(n.parents) > 0 {
		d.backfillLeaf(n)
	}
}

// backfillLeaf replays the retained window through leaf n so its collection
// holds every primitive match its window admits. Matches it already holds
// are kept once; new ones propagate like any insertion but are not
// delivered. Before the first edge it replays nothing.
func (d *DAG) backfillLeaf(n *node) {
	d.g.ForEachLiveEdge(func(de *graph.Edge) bool {
		d.searchNode(n, de)
		return true
	})
}

// backfillJoin (re)builds join node n's link indexes from its children's
// rows and joins them: the left child's rows are indexed silently, then the
// right child's stream through the normal index-and-probe step, so every
// (left, right) pair is joined exactly once — or none when n has no parent
// (join). Rows n already holds are kept once; new ones propagate like any
// insertion but are not delivered.
func (d *DAG) backfillJoin(n *node) {
	n.left.idx, n.right.idx = cutIndex{}, cutIndex{}
	ls := &n.left.child.rows
	for r := 0; r < ls.len(); r++ {
		n.left.idx.add(ls, n.left.cuts, r, hashKey(ls.row(r), n.left.cuts))
	}
	for r := 0; r < n.right.child.rows.len(); r++ {
		d.join(n, n.right, r)
	}
}

// joinSig composes an internal node's sharing key: the canonical fragment
// signature alone does not pin how the fragment splits into children, so the
// key also embeds both child signatures and the provenance map — for every
// parent canonical edge, which side it comes from and its canonical index
// there. Equal keys therefore guarantee isomorphic fragments with aligned
// children and cut partitions.
func joinSig(frag *decompose.Fragment, lsig, rsig string, lf, rf *decompose.Fragment) string {
	var prov strings.Builder
	for i, qe := range frag.EdgeToQuery {
		if i > 0 {
			prov.WriteByte(',')
		}
		if ce, ok := lf.EdgeFromQuery[qe]; ok {
			prov.WriteByte('L')
			prov.WriteString(strconv.Itoa(int(ce)))
		} else {
			prov.WriteByte('R')
			prov.WriteString(strconv.Itoa(int(rf.EdgeFromQuery[qe])))
		}
	}
	return "J|" + frag.Sig + "|{" + lsig + "}|{" + rsig + "}|" + prov.String()
}

// addNode records a node in the attachment's distinct-node lists.
func (a *Attachment) addNode(n *node, leaf bool) {
	for _, have := range a.nodes {
		if have == n {
			return
		}
	}
	a.nodes = append(a.nodes, n)
	if leaf {
		a.leaves = append(a.leaves, n)
	}
}

// mirrored reports whether fg is two vertices joined only by undirected
// edges (node.mirrored).
func mirrored(fg *query.Graph) bool {
	if fg.NumVertices() != 2 {
		return false
	}
	for _, id := range fg.EdgeIDs() {
		if e := fg.Edge(id); !e.AnyDirection || e.Source == e.Target {
			return false
		}
	}
	return true
}

// addSeeds registers a new leaf's local-search seeds, one per fragment edge,
// with precomputed connected orders (hot-path work hoisted to attach time).
func (d *DAG) addSeeds(n *node) {
	fg := n.frag.Graph
	edges := fg.EdgeIDs()
	for _, fe := range edges {
		order := n.matcher.ConnectedOrder(edges, fe)
		if order == nil {
			// Disconnected primitives are rejected by plan validation; skip
			// defensively rather than register a dead seed.
			continue
		}
		e := fg.Edge(fe)
		s := seedRef{n: n, qe: e, order: order}
		n.seeds = append(n.seeds, s)
		d.seedsByType[e.Type] = append(d.seedsByType[e.Type], s)
	}
}

// removeSeeds drops a collected leaf's seeds from the per-type index.
func (d *DAG) removeSeeds(n *node) {
	// Map order is harmless: each type bucket is filtered on its own and keeps
	// its seeds' relative order.
	for t, seeds := range d.seedsByType {
		kept := seeds[:0]
		for _, s := range seeds {
			if s.n != n {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(d.seedsByType, t)
		} else {
			d.seedsByType[t] = kept
		}
	}
}

// Detach removes a query from the DAG: it leaves its consumer group (the
// group goes when it has no member left), and only nodes whose reference
// count drops to zero are collected — anything still referenced by another
// query's plan (or as a subtree of one) survives with its state intact.
func (d *DAG) Detach(name string) error {
	att := d.attachment(name)
	if att == nil {
		return fmt.Errorf("mqo: query %q not attached", name)
	}
	root, g := att.root, att.group
	if g.members = slices.DeleteFunc(g.members, func(a *Attachment) bool { return a == att }); len(g.members) == 0 {
		root.consumers = slices.DeleteFunc(root.consumers, func(c *consumerGroup) bool { return c == g })
	}
	d.atts = slices.DeleteFunc(d.atts, func(a *Attachment) bool { return a == att })
	d.gc(root)
	d.recomputeWindows()
	return nil
}

// gc collects n if its reference count reached zero, cascading to children
// whose last parent link it held. A child that another query still reads as
// its root keeps no rows once its last parent is gone.
func (d *DAG) gc(n *node) {
	if n.refs() > 0 {
		return
	}
	delete(d.nodes, n.sig)
	for i, sig := range d.order {
		if sig == n.sig {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	if n.left == nil {
		d.removeSeeds(n)
		return
	}
	for _, l := range []*childLink{n.left, n.right} {
		child := l.child
		for i, pl := range child.parents {
			if pl.parent == n && pl.link == l {
				child.parents = append(child.parents[:i], child.parents[i+1:]...)
				break
			}
		}
		if len(child.parents) == 0 {
			child.rows.words = nil // no join reads them any more
		}
		d.gc(child)
	}
}

// widen relaxes a node's effective window to admit an attachment with
// requirement w, cascading downward (every node below must retain at least
// what its ancestors need). Zero, the retention, absorbs everything.
//
// A node whose window grows has dropped, at insertion or in a prune sweep,
// matches the wider window admits — a query attached mid-stream would miss
// them — so once its children are widened it re-derives its state from the
// retained window like a new node: a leaf re-searches the live edges, a join
// re-joins its children's collections. A node without a parent keeps no
// rows, so it re-derives none: a join only re-indexes its widened children.
// Like any backfill it delivers nothing (see Attach).
func (d *DAG) widen(n *node, w time.Duration) {
	nw := combineWindow(n.window, w)
	if nw == n.window {
		return
	}
	n.window = nw
	if n.left != nil {
		d.widen(n.left.child, nw)
		d.widen(n.right.child, nw)
	}
	d.backfill(n)
}

// recomputeWindows rebuilds every node's effective window from scratch —
// required after a detach, which may narrow windows (widen only relaxes).
// Nothing is re-derived: no window ends up wider than it was.
func (d *DAG) recomputeWindows() {
	for _, sig := range d.order {
		d.nodes[sig].window = -1
	}
	var require func(n *node, w time.Duration)
	require = func(n *node, w time.Duration) {
		if nw := combineWindow(n.window, w); nw != n.window {
			n.window = nw
			if n.left != nil {
				require(n.left.child, nw)
				require(n.right.child, nw)
			}
		}
	}
	for _, att := range d.atts {
		require(att.root, att.window)
	}
}

// combineWindow merges two window requirements: -1 is "none yet", 0 is the
// retention, which is at least any other, otherwise the wider one wins.
func combineWindow(cur, w time.Duration) time.Duration {
	if cur < 0 {
		return w
	}
	if cur == 0 || w == 0 {
		return 0
	}
	if w > cur {
		return w
	}
	return cur
}

// orRetention resolves a window requirement: 0, a window-less query's, is
// the retention, which is itself 0 (unbounded) or at least every query's
// window.
func orRetention(w, retention time.Duration) time.Duration {
	if w == 0 {
		return retention
	}
	return w
}
