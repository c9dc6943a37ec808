// Package mqo implements the continuous engine's evaluation: one shared
// evaluation DAG for all registered queries, in place of one private SJ-Tree
// per query (sjtree.Tree, which stays as the single-query reference).
//
// Every decomposition plan node of every attached query is canonicalized
// (decompose.Canonicalize) and folded into a DAG node keyed by its canonical
// signature — structurally identical subpatterns across queries (shared
// leaves, wedges, whole common subtrees) become one node. Each node derives
// the matches of its canonical fragment once, for all of them, so per
// arriving edge the leaf local search runs once per distinct primitive,
// not once per query, and every partial-match join is computed once and
// fanned out to all parents. This is the shared-decomposition design of
// "Query Optimization for Dynamic Graphs" (arXiv 1407.3745) grafted onto the
// paper's SJ-Tree machinery.
//
// The correctness argument is automorphism closure: a DAG node derives ALL
// embeddings of its canonical fragment (local search is seeded on
// every fragment edge for every arriving data edge, exactly like a private
// leaf), a set closed under fragment automorphisms. Remapping a closed set
// through any fixed isomorphism into a consumer's pattern space yields the
// identical set of query-space matches a private tree would have computed,
// so emissions are byte-identical to the single-query reference. Per-query
// emission semantics are preserved exactly: each attachment is sent every
// distinct data-edge binding inside its own window exactly once, through its
// own callback.
//
// Every byte of join state exists once, and none of it is an object: a
// partial is a row of data-ID words in its node's arena, in the node's
// canonical space (rows.go), chained by row number in each parent link's cut
// index, keyed on the parent's cut pulled back into child space. A join reads
// both input rows through the links' maps into the parent's scratch row, and
// local search binds in place, so a row is copied only when it is stored. A
// node stores rows only while it has a parent, whose joins read them: a root
// that is no other node's child delivers its rows and keeps none, and
// derives them from the window when a later plan makes it a child.
//
// A match is derived once, so it is delivered once, with nothing remembered
// to make it so: a root row is delivered as it is derived while an edge is
// being processed, and its last edge arrives once. Live derivation repeats no
// row (rows.go says why), so nothing is looked up to refuse one. Backfills
// (Attach and the re-derivation of a widened node) deliver nothing, since
// every row they derive reads edges already in the window: it was sent when
// its last edge arrived, or predates the query that was not sent it. They
// alone repeat rows, and refuse them through a table that lives only while
// they run. A fragment of two vertices joined only by undirected edges has
// two rows per match, an embedding and its mirror, binding the same edges
// to swapped vertices: both are stored, since a join on either vertex reads
// them, and one is delivered (node.mirrored).
//
// Emission costs what the distinct root matches cost, not (queries × pattern
// edges): the attachments consuming a root node are grouped by how they read
// it — identical maps out of the root's canonical space into identically
// shaped queries, which is what rules differing only in name and window
// have — and a root row is built into a query-space match and its Signature
// built once per consumer group. The contract that buys this: an emitted
// *match.Match and its signature string are shared by every member of the
// group and immutable from emission on; Emit callbacks and everything
// downstream (core.MatchEvent, sinks, reports) may retain but not mutate
// them. Both are carved from the DAG's match.Arena, so delivery allocates
// nothing per match; a retained match keeps its 8 KiB chunks alive, so
// whatever outlives the window (the WAL's keys) copies what it keeps.
//
// Like the core engine, a DAG is single-goroutine state: the engine's driver
// goroutine calls ProcessEdge/Attach/Detach/Prune, never concurrently.
package mqo

import (
	"slices"
	"time"

	"github.com/streamworks/streamworks/internal/decompose"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/isomorphism"
	"github.com/streamworks/streamworks/internal/match"
	"github.com/streamworks/streamworks/internal/obs"
	"github.com/streamworks/streamworks/internal/query"
)

// node is one shared DAG node: the match collection of one canonical
// subpattern, referenced by any number of parent nodes (whose joins consume
// it) and consumers (attachments whose plan root it is). A node is dropped
// when its reference count — parents plus consumers — reaches zero.
type node struct {
	sig  string
	frag *decompose.Fragment
	// matcher searches the canonical fragment graph; leaf nodes use it for
	// the per-edge local search.
	matcher *isomorphism.Matcher

	// left/right are the join inputs (nil for leaves). A node's children may
	// be the same shared node on both sides — two links, one child.
	left, right *childLink
	// parents are the reverse links: every (parent, link) pair whose join
	// consumes this node's matches.
	parents []*parentLink
	// consumers are the attachments whose plan root this node is, grouped
	// by how they read its matches.
	consumers []*consumerGroup

	// rows is the node's canonical match collection (Property 3 of the
	// SJ-Tree, shared across all referencing queries), kept while the node
	// has a parent, and row the scratch a candidate is built in before it is
	// stored or delivered.
	rows rows
	row  []uint64

	// seeds are the per-fragment-edge local-search seeds (leaves only); the
	// same entries are indexed in DAG.seedsByType. A leaf's local search
	// binds into found and hands each embedding to yield, which stores it.
	seeds []seedRef
	found *match.Match
	yield func(*match.Match) bool

	// mirrored marks a fragment of two vertices joined only by undirected
	// edges: swapping the vertices of an embedding, its mirror, binds the
	// same edges, and is an embedding too when each data vertex passes the
	// other pattern vertex's test. Both are derived and stored, since a join
	// on either vertex reads both, but they are one match, delivered once.
	mirrored bool

	// window is the widest window requirement among all attachments whose
	// DAG reaches this node: 0 means some attachment is window-less, whose
	// window is the retention (orRetention); negative means not yet
	// computed. Matches outside it can never be delivered and are dropped at
	// insertion, like a private tree's per-node window check.
	window time.Duration

	searches     uint64
	joinAttempts uint64
	joinHits     uint64
	windowDrops  uint64
}

// refs is the node's reference count: parent links plus consuming
// attachments. It is derived, never stored, so attach/detach cannot leak or
// double-free by miscounting.
func (n *node) refs() int {
	refs := len(n.parents)
	for _, g := range n.consumers {
		refs += len(g.members)
	}
	return refs
}

// childLink wires one join input of a parent node: the maps renaming the
// child's canonical space into the parent's, the join's cut vertices, and
// the hash partition of the child's rows on them (Property 4 — the index
// lives on the link because the same child feeds different parents under
// different cuts). The index chains the child's own rows; it holds no
// copies.
type childLink struct {
	child *node
	// pos renames the child's canonical space into the parent's (via the
	// source query both fragments were canonicalized from), word for word:
	// child row word i is parent row word pos[i], vertices to vertices and
	// edges to edges.
	pos []int
	// cuts are the child's vertices that pos takes to the join's cut
	// vertices, listed in the parent-space (sorted) order of those, which
	// both of the parent's links share — so the two indexes' keys are
	// comparable though each is taken in its own child's space.
	cuts []query.VertexID
	idx  cutIndex
}

// parentLink is the reverse edge of a childLink.
type parentLink struct {
	parent *node
	link   *childLink
}

// otherLink returns the sibling link of l within n.
func (n *node) otherLink(l *childLink) *childLink {
	if n.left == l {
		return n.right
	}
	return n.left
}

// seedRef is one (leaf node, fragment edge) local-search seed with its
// precomputed connected order: orders depend only on the pattern, so
// computing them per arriving edge would be pure hot-path waste.
type seedRef struct {
	n     *node
	qe    *query.Edge
	order []query.EdgeID
}

// consumerGroup is the set of attachments, in attach order, that read one
// root node's matches identically: the same maps from the root's canonical
// space into query space and the same query shape (the first member's stand
// for all), so one match build and one Signature per root match serve them
// all. Queries differing only in name or window — the near-duplicate rules
// of a monitoring deployment — share a group; members keep their own window
// filter and callbacks.
type consumerGroup struct {
	members []*Attachment
}

// addConsumer subscribes att to n's complete matches, through the group
// reading them with att's maps when there is one.
func (n *node) addConsumer(att *Attachment) {
	for _, g := range n.consumers {
		if lead := g.members[0]; lead.q.NumVertices() == att.q.NumVertices() && lead.q.NumEdges() == att.q.NumEdges() &&
			slices.Equal(lead.rootVMap, att.rootVMap) && slices.Equal(lead.rootEMap, att.rootEMap) {
			g.members = append(g.members, att)
			att.group = g
			return
		}
	}
	att.group = &consumerGroup{members: []*Attachment{att}}
	n.consumers = append(n.consumers, att.group)
}

// DAG is the shared evaluation DAG. It is not safe for concurrent use.
type DAG struct {
	g *graph.Dynamic

	nodes map[string]*node
	// order lists node signatures in creation order for deterministic
	// iteration (stats, pruning).
	order []string

	// seedsByType indexes leaf seeds by required edge type; "" holds
	// wildcard pattern edges every arriving edge must be tested against.
	seedsByType map[string][]seedRef

	// atts lists the attached queries in attach order: the one record of
	// each registration (its name, query and plan) an engine keeps.
	atts []*Attachment

	// The DAG's counts live in its registry (its engine's, under WithObs):
	// leaf searches and the fan-out saving.
	reg                       *obs.Registry
	localSearches, sharedHits *obs.Counter

	// building is set while attach builds a plan into the DAG: the rows its
	// backfills derive are stored and joined but not delivered. indexed lists
	// the nodes whose rows a backfill indexed, unindexed when it ends.
	building bool
	indexed  []*node

	// arena carves the matches and signatures consumer groups deliver.
	arena match.Arena

	// Local-search and join timing, resolved once like core's engineObs and
	// nil unless observability is enabled: wall time only ever flows through
	// the obs.Clock seam. Joins run inside the search, as it yields, so
	// joinNS accumulates their share of one search.
	clock         obs.Clock
	hLocal, hJoin *obs.Histogram
	joinNS        int64
}

// Option configures a DAG.
type Option func(*DAG)

// WithObs keeps the DAG's counts in c's registry — the engine's — and, when
// observability is enabled, times local search and joins into the engine's
// segment histograms.
func WithObs(c obs.Config) Option {
	return func(d *DAG) {
		c = c.Normalized()
		d.reg = c.Registry
		if c.Enabled {
			d.clock = c.Clock
			d.hLocal = c.Registry.Segment(obs.SegLocalSearch)
			d.hJoin = c.Registry.Segment(obs.SegDAGJoin)
		}
	}
}

// New constructs an empty DAG over the given dynamic graph. Without WithObs
// its counts go to a registry of its own.
func New(g *graph.Dynamic, opts ...Option) *DAG {
	d := &DAG{
		g:           g,
		nodes:       make(map[string]*node),
		seedsByType: make(map[string][]seedRef),
	}
	for _, o := range opts {
		o(d)
	}
	if d.reg == nil {
		d.reg = obs.NewRegistry()
	}
	d.localSearches = d.reg.Counter("mqo_local_searches", "", "")
	d.sharedHits = d.reg.Counter("mqo_shared_hits", "", "")
	return d
}

// Attachments returns the attached queries in attach order. The slice is
// the DAG's own: read it before the next Attach or Detach, and do not
// modify it.
func (d *DAG) Attachments() []*Attachment { return d.atts }

// attachment returns the query attached under name, or nil.
func (d *DAG) attachment(name string) *Attachment {
	for _, a := range d.atts {
		if a.name == name {
			return a
		}
	}
	return nil
}

// NumNodes returns the number of live DAG nodes.
func (d *DAG) NumNodes() int { return len(d.nodes) }

// LocalSearches returns the cumulative number of leaf local searches run.
func (d *DAG) LocalSearches() uint64 { return d.localSearches.Value() }

// SharedHits returns the cumulative fan-out saving: for every local search
// of a node referenced by k parents-or-consumers, k−1 redundant per-query
// searches were avoided.
func (d *DAG) SharedHits() uint64 { return d.sharedHits.Value() }

// ProcessEdge runs the per-edge incremental step for every attached query at
// once: one local search per distinct leaf primitive the edge can seed, with
// results inserted into the shared DAG and complete matches fanned out to
// each attachment's emit callback.
func (d *DAG) ProcessEdge(de *graph.Edge) {
	if len(d.atts) == 0 {
		return
	}
	d.processSeeds(d.seedsByType[de.Type], de)
	if de.Type != "" {
		d.processSeeds(d.seedsByType[""], de)
	}
}

func (d *DAG) processSeeds(seeds []seedRef, de *graph.Edge) {
	for i := range seeds {
		s := &seeds[i]
		if !s.qe.MatchesEdge(de) {
			continue
		}
		n := s.n
		if fan := n.refs(); fan > 1 {
			d.sharedHits.Add(uint64(fan - 1))
		}
		t0 := d.now()
		d.joinNS = 0
		d.search(n, s, de)
		if d.clock != nil {
			d.hLocal.Observe(d.now() - t0 - d.joinNS)
			d.hJoin.Observe(d.joinNS)
		}
	}
}

// now reads the obs clock, or returns 0 when observability is off.
func (d *DAG) now() int64 {
	if d.clock == nil {
		return 0
	}
	return d.clock.Now()
}

// search runs one local search of leaf n seeded by de on s, storing and
// propagating every embedding it finds.
func (d *DAG) search(n *node, s *seedRef, de *graph.Edge) {
	n.searches++
	d.localSearches.Inc()
	n.matcher.LocalSearchFunc(d.g.Graph(), s.order, de, n.found, n.yield)
}

// searchNode runs the local searches of one leaf for one edge — the backfill
// path used when a freshly created leaf replays the retained window. No
// shared-hit accounting: the node is new, nothing was saved.
func (d *DAG) searchNode(n *node, de *graph.Edge) {
	for i := range n.seeds {
		if s := &n.seeds[i]; s.qe.MatchesEdge(de) {
			d.search(n, s, de)
		}
	}
}

// leafYield returns leaf n's local-search callback: the embedding in n.found
// becomes a row in n's scratch and is inserted.
func (d *DAG) leafYield(n *node) func(*match.Match) bool {
	return func(m *match.Match) bool {
		t0 := d.now()
		copy(n.row, m.Slots())
		n.rows.setSpan(n.row, m.Span)
		d.insert(n, n.row)
		d.joinNS += d.now() - t0
		return true
	}
}

// insert takes a canonical partial of n's fragment, built in row (n's
// scratch), and propagates it: store it in the node's rows when the node has
// a parent, index it in each parent link's cut index, hash-join it with the
// sibling's rows through the two links' maps (recursing upward), and deliver
// it to each consumer group — unless a backfill derived it, or it is the
// mirror of the row sent (node.mirrored). A backfill stores
// a row only once, through the rows' dedup table, built on its first insert
// into the node. This is sjtree.Tree.Insert generalized from one parent to
// many.
func (d *DAG) insert(n *node, row []uint64) {
	if w := orRetention(n.window, d.g.Window()); w > 0 && !n.rows.span(row).Within(w) {
		n.windowDrops++
		return
	}
	if len(n.parents) > 0 {
		if d.building && !n.rows.indexed() {
			n.rows.index(match.HashEdgeSlots)
			d.indexed = append(d.indexed, n)
		}
		r, added := n.rows.add(row, match.HashEdgeSlots)
		if !added {
			return
		}
		for _, pl := range n.parents {
			d.join(pl.parent, pl.link, r)
		}
	}
	if d.building || n.mirrored && d.mirrorSent(n, row) {
		return
	}
	for _, g := range n.consumers {
		g.deliver(&d.arena, n, row, d.g.Window())
	}
}

// mirrorSent reports whether the consumers of mirrored node n are sent
// row's mirror instead of row: of a row and its mirror, both embeddings, the
// one binding the lower vertex first is sent.
func (d *DAG) mirrorSent(n *node, row []uint64) bool {
	if row[0] < row[1] {
		return false
	}
	g, fg := d.g.Graph(), n.frag.Graph
	first, _ := g.Vertex(graph.VertexID(row[0]))
	second, _ := g.Vertex(graph.VertexID(row[1]))
	return fg.Vertex(0).Matches(&second) && fg.Vertex(1).Matches(&first)
}

// join indexes row r of l's child under its cut key and inserts into p its
// join with every sibling row indexed under the same key — none while a
// backfill runs and p has no parent, since p would neither keep nor send
// what the join derives.
func (d *DAG) join(p *node, l *childLink, r int) {
	o := p.otherLink(l)
	cs, ss := &l.child.rows, &o.child.rows
	row := cs.row(r)
	h := hashKey(row, l.cuts)
	l.idx.add(cs, l.cuts, r, h)
	if d.building && len(p.parents) == 0 {
		return
	}
	for s := o.idx.probe(ss, o.cuts, row, l.cuts, h); s != chainEnd; s = int(o.idx.next[s]) {
		p.joinAttempts++
		if !joinRows(p, row, l, ss.row(s), o) {
			continue
		}
		p.joinHits++
		d.insert(p, p.row)
	}
}

// joinRows writes into p's scratch the join of a, a row of l's child, and b,
// one of o's, both read through their links into p's canonical space, or
// reports false when they do not join. The rules are match.Join's on the two
// remapped partials: a parent vertex or edge both bind must hold the same
// data vertex or edge, and no data vertex may sit under two parent
// vertices; the span is the union.
func joinRows(p *node, a []uint64, l *childLink, b []uint64, o *childLink) bool {
	dst := p.row[:p.rows.nv+p.rows.ne]
	for i := range dst {
		dst[i] = unbound
	}
	for i, at := range l.pos {
		dst[at] = a[i]
	}
	av := a[:l.child.rows.nv]
	for j, at := range o.pos {
		w := b[j]
		if dst[at] != unbound && dst[at] != w {
			return false // bound apart
		}
		if j < o.child.rows.nv && dst[at] != w && slices.Contains(av, w) {
			return false // one data vertex under two parent vertices
		}
		dst[at] = w
	}
	p.rows.setSpan(p.row, l.child.rows.span(a).Union(o.child.rows.span(b)))
	return true
}

// unbound is the empty binding word, match.Match's.
const unbound = ^uint64(0)

// admit builds a canonical root row of n into a match in the group's query
// space, once for whoever reads it: nil when it does not cover the query — a
// plan bug; drop rather than report a wrong result.
func (g *consumerGroup) admit(a *match.Arena, n *node, row []uint64) *match.Match {
	lead := g.members[0]
	nv, ne := lead.q.NumVertices(), lead.q.NumEdges()
	s := &n.rows
	m := a.RemapSlots(nv, ne, row[:s.nv], s.edges(row), lead.rootVMap, lead.rootEMap, s.span(row))
	if m.NumVertices() != nv || m.NumEdges() != ne {
		return nil
	}
	return m
}

// deliver fans a new canonical root row of n out to the group, preserving
// the private tree's acceptance rules per query — completeness, the query's
// own window (the retention for a window-less one), then emit — while doing
// each once: the window checks run on the canonical row, the first member to
// pass its window has it built into a match in query space, the first to
// emit builds the signature, and later members are handed the same match and
// string — both carved from a.
func (g *consumerGroup) deliver(a *match.Arena, n *node, row []uint64, retention time.Duration) {
	span := n.rows.span(row)
	var qm *match.Match
	var sig string
	for _, att := range g.members {
		if w := orRetention(att.window, retention); w > 0 && !span.Within(w) {
			continue
		}
		if qm == nil {
			if qm = g.admit(a, n, row); qm == nil {
				return
			}
		}
		sig = att.send(a, qm, sig)
	}
}

// send emits qm to the attachment and returns its signature, carving it from
// arena if the caller has not got it yet and the callback wants it.
func (a *Attachment) send(arena *match.Arena, qm *match.Match, sig string) string {
	if a.emitSigned != nil {
		if sig == "" {
			sig = arena.Signature(qm)
		}
		a.emitSigned(qm, sig)
	} else if a.emit != nil {
		a.emit(qm)
	}
	return sig
}

// Prune drops stored matches that can no longer contribute: per node, the
// matches whose span start has aged past the node's effective window (the
// widest window of any attachment reaching it, the retention for a
// window-less one), so every match binding an edge the window graph has
// expired. It only reclaims memory: insertion and delivery check the same
// windows, so what is sent does not depend on when Prune runs. The cut
// indexes of a node's parent links are swept with each parent's predicate in
// the same pass (sweep) — an input's window is at least the node's, so an
// index entry never outlives the row it chains. Returns the number of stored
// matches removed, each counted once.
//
// The second parameter is unused; it stays only because the benchmark
// harness still passes the edges its window graph expired.
func (d *DAG) Prune(wm graph.Timestamp, _ map[graph.EdgeID]struct{}) int {
	removed := 0
	for _, sig := range d.order {
		removed += sweep(d.nodes[sig], wm, d.g.Window(), hashKey)
	}
	return removed
}
