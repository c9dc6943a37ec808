package graph

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/streamworks/streamworks/internal/testutil/allocbudget"
)

// Once the window has turned over, every Apply expires one edge and brings
// back two vertices that went isolated: the edge record, the vertex records
// and the incidence lists all come from what expiry freed.
func TestDynamicApplySteadyStateAllocs(t *testing.T) {
	const window, hosts = 64, 80 // a host pair's last edge expired 15 edges ago
	d := NewDynamic(window)
	next := 0
	apply := func() {
		h := VertexID(2 * (next % hosts))
		if _, err := d.Apply(streamEdge(EdgeID(next), h+1, h+2, "flow", Timestamp(next))); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 4*hosts {
		apply()
	}
	allocbudget.Check(t, "graph.Dynamic.Apply/steady-state window", apply)
	if d.NumEdges() != window+1 || d.NumVertices() != 2*(window+1) {
		t.Fatalf("window holds %d edges over %d vertices, want %d over %d",
			d.NumEdges(), d.NumVertices(), window+1, 2*(window+1))
	}
}

// A source vertex that repeats a NaN attribute on every edge already holds
// it: the merge is skipped, as for any repeated value, so nothing is cloned.
func TestDynamicApplyRepeatedNaNAttrAllocs(t *testing.T) {
	const window, hosts = 64, 80
	d := NewDynamic(window)
	attrs := Attributes{"score": Float(math.NaN())}
	next := 0
	apply := func() {
		se := streamEdge(EdgeID(next), 1, VertexID(2+next%hosts), "flow", Timestamp(next))
		se.SourceAttrs = attrs
		if _, err := d.Apply(se); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 4*hosts {
		apply()
	}
	allocbudget.Check(t, "graph.Dynamic.Apply/repeated NaN attribute", apply)
}

// skewedChurn returns apply, which applies the next edge of a stream whose
// host degrees follow a Zipf law (seed 51) whose ranking rotates one host
// every 64 edges: each host warms up to a hub, drops to the coldest rank,
// leaves the window and comes back warming again, so vertices keep leaving
// and returning with lists longer than 16, up to about 75 edges. Replayed,
// the ranks of one rotation are drawn once and repeat with the rotation;
// otherwise each edge draws its own. returns counts the hosts that came back
// with more than 16 edges after leaving the window. apply has run a rotation
// and, when replayed, a window on return.
func skewedChurn(t *testing.T, replayed bool) (apply func(), returns *int) {
	const window, hosts, period = 1 << 13, 1024, 64
	const rotation = hosts * period // edges
	zipf := rand.NewZipf(rand.New(rand.NewSource(51)), 1.1, 1, hosts-1)
	var ranks []uint16 // two per edge of one rotation, when replayed
	if replayed {
		ranks = make([]uint16, 2*rotation)
		for i := range ranks {
			ranks[i] = uint16(zipf.Uint64())
		}
	}
	// left marks the hosts that have left the window since they last came
	// back with more than 16 edges.
	var left [hosts]bool
	returns = new(int)
	var d *Dynamic
	d = NewDynamic(window, WithExpiryCallback(func(e *Edge) {
		for _, v := range [2]VertexID{e.Source, e.Target} {
			if _, ok := d.g.Vertex(v); !ok {
				left[v] = true
			}
		}
	}))
	next := 0
	host := func(end int) VertexID {
		var rank int
		if replayed {
			rank = int(ranks[(2*next+end)%len(ranks)])
		} else {
			rank = int(zipf.Uint64())
		}
		return VertexID((rank + next/period) % hosts)
	}
	apply = func() {
		src, dst := host(0), host(1)
		if _, err := d.Apply(streamEdge(EdgeID(next), src, dst, "flow", Timestamp(next))); err != nil {
			t.Fatal(err)
		}
		for _, v := range [2]VertexID{src, dst} {
			if left[v] && listLen(d.g.OutEdges(v))+listLen(d.g.InEdges(v)) > 16 {
				left[v] = false
				*returns++
			}
		}
		next++
	}
	warm := rotation
	if replayed {
		warm += window
	}
	for next < warm {
		apply()
	}
	*returns = 0
	return apply, returns
}

// Once the replayed stream has run a rotation and a window, the live
// vertices and the free handles have reached every count they will reach
// again, and applying allocates nothing, counted exactly. Drawn fresh, the
// stream keeps setting new lows of live vertices, and so new highs of free
// handles, long after a rotation of warm-up (the 70,386th apply after it
// frees more vertex handles than ever before): releasing a handle must
// allocate nothing however many are free.
func TestDynamicApplySkewedChurnAllocs(t *testing.T) {
	for _, tc := range []struct {
		op       string
		replayed bool
		runs     int
	}{
		{"graph.Dynamic.Apply/skewed host churn", true, 60000},
		{"graph.Dynamic.Apply/skewed host churn, drawn fresh", false, 80000},
	} {
		apply, returns := skewedChurn(t, tc.replayed)
		allocbudget.CheckExact(t, tc.op, tc.runs, apply)
		if *returns < 100 {
			t.Fatalf("%s: the stream did not churn: %d returns with more than 16 edges in %d applies", tc.op, *returns, tc.runs)
		}
	}
}

// model is the naive reference for Dynamic: live edges in a map with their
// arrival numbers, vertices with their merged metadata, expiry by scanning
// every live edge.
type model struct {
	window, slack  Timestamp
	newest, cutoff Timestamp
	seen           bool
	edges          map[EdgeID]Edge
	arrival        map[EdgeID]int
	arrivals       int
	vertices       map[VertexID]Vertex
}

func (m *model) upsert(id VertexID, typ string, attrs Attributes) {
	v, ok := m.vertices[id]
	if !ok {
		v = Vertex{ID: id}
	}
	if typ != "" || !ok {
		v.Type = typ
	}
	if len(attrs) > 0 {
		merged := make(Attributes)
		for k, val := range v.Attrs {
			merged[k] = val
		}
		for k, val := range attrs {
			merged[k] = val
		}
		v.Attrs = merged
	}
	m.vertices[id] = v
}

func (m *model) apply(se StreamEdge) map[EdgeID]Edge {
	m.upsert(se.Edge.Source, se.SourceType, se.SourceAttrs)
	m.upsert(se.Edge.Target, se.TargetType, se.TargetAttrs)
	m.edges[se.Edge.ID] = se.Edge
	m.arrival[se.Edge.ID] = m.arrivals
	m.arrivals++
	return m.advance(se.Edge.Timestamp)
}

// advance expires every live edge older than the cutoff, then every endpoint
// of one that is left with no edge.
func (m *model) advance(ts Timestamp) map[EdgeID]Edge {
	if !m.seen || ts > m.newest {
		m.newest, m.seen = ts, true
	}
	m.cutoff = max(m.cutoff, m.newest-m.window-m.slack)
	expired := make(map[EdgeID]Edge)
	for id, e := range m.edges {
		if e.Timestamp < m.cutoff {
			expired[id] = e
			delete(m.edges, id)
		}
	}
	for _, e := range expired {
		for _, v := range []VertexID{e.Source, e.Target} {
			if !m.touched(v) {
				delete(m.vertices, v)
			}
		}
	}
	return expired
}

func (m *model) touched(v VertexID) bool {
	for _, e := range m.edges {
		if e.Source == v || e.Target == v {
			return true
		}
	}
	return false
}

func sameAttrs(a, b Attributes) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || !bv.Equal(v) {
			return false
		}
	}
	return true
}

func sameEdge(a, b Edge) bool {
	return a.ID == b.ID && a.Source == b.Source && a.Target == b.Target &&
		a.Type == b.Type && a.Timestamp == b.Timestamp && sameAttrs(a.Attrs, b.Attrs)
}

// compare fails t unless d holds exactly what m does, each incidence list
// in arrival order and the live window once each in ForEachLiveEdge.
func (m *model) compare(t *testing.T, step int, d *Dynamic) {
	t.Helper()
	g := d.Graph()
	if g.NumEdges() != len(m.edges) || g.NumVertices() != len(m.vertices) {
		t.Fatalf("step %d: graph has %d edges and %d vertices, model %d and %d",
			step, g.NumEdges(), g.NumVertices(), len(m.edges), len(m.vertices))
	}
	out, in := make(map[VertexID][]EdgeID), make(map[VertexID][]EdgeID)
	types := make(map[string]int)
	for id, e := range m.edges {
		out[e.Source] = append(out[e.Source], id)
		in[e.Target] = append(in[e.Target], id)
		types[e.Type]++
	}
	list := func(v VertexID, dir string, got EdgeList, want []EdgeID) {
		var ids []EdgeID
		for e, ok := got.Next(); ok; e, ok = got.Next() {
			if !sameEdge(e, m.edges[e.ID]) {
				t.Fatalf("step %d: %s edges of v%d hold %v, model has %v", step, dir, v, e, m.edges[e.ID])
			}
			ids = append(ids, e.ID)
		}
		slices.SortFunc(want, func(a, b EdgeID) int { return m.arrival[a] - m.arrival[b] })
		if !slices.Equal(ids, want) {
			t.Fatalf("step %d: %s edges of v%d are %v, model has %v in arrival order", step, dir, v, ids, want)
		}
	}
	vertexTypes := make(map[string]int)
	for id, want := range m.vertices {
		got, ok := g.Vertex(id)
		if !ok || got.ID != id || got.Type != want.Type || !sameAttrs(got.Attrs, want.Attrs) {
			t.Fatalf("step %d: vertex %d is %v (present %v), model has %v", step, id, got, ok, &want)
		}
		vertexTypes[want.Type]++
		list(id, "out", g.OutEdges(id), out[id])
		list(id, "in", g.InEdges(id), in[id])
	}
	for _, typ := range []string{"a", "b", "c"} {
		if got := g.CountEdgesOfType(typ); got != types[typ] {
			t.Fatalf("step %d: %d edges of type %s, model has %d", step, got, typ, types[typ])
		}
	}
	for _, typ := range []string{"", "Host", "Server"} {
		if got := g.CountVerticesOfType(typ); got != vertexTypes[typ] {
			t.Fatalf("step %d: %d vertices of type %q, model has %d", step, got, typ, vertexTypes[typ])
		}
	}
	var visited []EdgeID
	d.ForEachLiveEdge(func(e *Edge) bool {
		if got, ok := g.Edge(e.ID); !ok || !sameEdge(got, *e) || !sameEdge(*e, m.edges[e.ID]) {
			t.Fatalf("step %d: ForEachLiveEdge visits %v, which is not the live edge %d", step, e, e.ID)
		}
		visited = append(visited, e.ID)
		return true
	})
	// The window in timestamp order, arrivals of equal time in arrival
	// order: the model's live edges stably sorted by timestamp.
	want := make([]EdgeID, 0, len(m.edges))
	for id := range m.edges {
		want = append(want, id)
	}
	slices.SortFunc(want, func(a, b EdgeID) int {
		return cmp.Or(cmp.Compare(m.edges[a].Timestamp, m.edges[b].Timestamp), m.arrival[a]-m.arrival[b])
	})
	if !slices.Equal(visited, want) {
		t.Fatalf("step %d: ForEachLiveEdge visits %v, model has %v in timestamp order", step, visited, want)
	}
	checkRecycling(t, step, d)
}

// checkRecycling fails t when a live vertex has no incident edge, when a
// chain does not hold exactly the live edges of its vertex and direction
// (each handle on it a live edge that ends at the vertex, no edge twice, the
// walk's end its last), when an edge's endpoint handles do not name live
// vertices of its endpoint IDs, when an edge handle handed out is neither on
// the expiry queue nor free or is both, when the queue is out of timestamp
// order, does not end at its tail or is not split at behind (the edges up to
// it behind the watermark, the others not), or when a vertex handle handed
// out is neither live and filed under its ID nor free with zeroed chains.
// That a chain is in arrival order is compare's check, through the EdgeList
// cursor that walks it.
func checkRecycling(t *testing.T, step int, d *Dynamic) {
	t.Helper()
	recs, verts := &d.g.edges, &d.g.vertices
	// isEdge reports whether h is the handle the ID table files its record's
	// ID under: the live edge of that ID.
	isEdge := func(h int32) bool { return d.g.edgeIDs.find(recs, recs.key(h)) == h }
	// endsAt reports whether the edge of h names, by handle, the live
	// vertices of its endpoint IDs, and v is its source (dirOut) or target.
	endsAt := func(h int32, v VertexID, dir int) bool {
		r := recs.at(h)
		src, dst := verts.at(r.src).id, verts.at(r.dst).id
		if d.g.findVertex(src) != r.src || d.g.findVertex(dst) != r.dst {
			return false
		}
		if dir == dirOut {
			return src == v
		}
		return dst == v
	}
	// chained holds, per direction, the handles found on some chain.
	chained := [2]map[int32]bool{make(map[int32]bool), make(map[int32]bool)}
	walk := func(v VertexID, dir int, c chain) {
		var n, last int32
		for s := c.first; s != 0; s = recs.at(s - 1).next[dir] {
			if h := s - 1; h >= recs.n || !isEdge(h) || !endsAt(h, v, dir) || chained[dir][h] {
				t.Fatalf("step %d: chain %d of v%d holds handle %d at position %d, which it must not", step, dir, v, h, n)
			}
			chained[dir][s-1] = true
			n, last = n+1, s
		}
		if last != c.last {
			t.Fatalf("step %d: chain %d of v%d walks %d edges to %d, records its end at %d", step, dir, v, n, last, c.last)
		}
	}
	// Every vertex handle handed out is live, and filed under its ID, or
	// free, once.
	liveVertex := make(map[int32]bool)
	for _, s := range d.g.vertexIDs.slots {
		if s == 0 {
			continue
		}
		h := s - 1
		if h >= verts.n || liveVertex[h] || d.g.findVertex(verts.at(h).id) != h {
			t.Fatalf("step %d: vertex handle %d is not filed once under its ID", step, h)
		}
		liveVertex[h] = true
		r := verts.at(h)
		if r.lists[dirOut].first == 0 && r.lists[dirIn].first == 0 {
			t.Fatalf("step %d: vertex %d has no incident edge", step, r.id)
		}
		walk(r.id, dirOut, r.lists[dirOut])
		walk(r.id, dirIn, r.lists[dirIn])
	}
	if len(liveVertex) != d.g.NumVertices() {
		t.Fatalf("step %d: %d vertex handles filed, %d vertices", step, len(liveVertex), d.g.NumVertices())
	}
	for dir, hs := range chained {
		if len(hs) != d.g.NumEdges() {
			t.Fatalf("step %d: chains %d hold %d edges, the window %d", step, dir, len(hs), d.g.NumEdges())
		}
	}
	for _, h := range verts.released() {
		if r := verts.at(h); liveVertex[h] || r.id != 0 || r.lists != [2]chain{} {
			t.Fatalf("step %d: free vertex handle %d is live, filed or not zeroed", step, h)
		}
		liveVertex[h] = true
	}
	if len(liveVertex) != int(verts.n) {
		t.Fatalf("step %d: %d vertex handles handed out, %d live or free", step, verts.n, len(liveVertex))
	}
	// An edge leaves the graph only when the queue passes its handle, which
	// is then released: every handle handed out is a live edge on the queue
	// or free, once, and the queue holds every live edge, in timestamp order,
	// up to its tail.
	held := make(map[int32]bool)
	queued := d.queued()
	past := d.behind == 0 // past behind: no longer behind the watermark
	for i, h := range queued {
		if h < 0 || h >= recs.n || !isEdge(h) || held[h] {
			t.Fatalf("step %d: the queue holds handle %d at position %d, which it must not", step, h, i)
		}
		held[h] = true
		ts := recs.at(h).ts
		if i > 0 && ts < recs.at(queued[i-1]).ts {
			t.Fatalf("step %d: the queue holds an edge at %d after one at %d", step, ts, recs.at(queued[i-1]).ts)
		}
		if late := ts < d.Watermark(); late == past {
			t.Fatalf("step %d: queued edge %d at %d (watermark %d) is on the wrong side of behind (%d)",
				step, i, ts, d.Watermark(), d.behind-1)
		}
		if h+1 == d.behind {
			past = true
		}
	}
	if !past {
		t.Fatalf("step %d: behind (%d) is not on the queue", step, d.behind-1)
	}
	if n := len(queued); n != d.g.NumEdges() || n > 0 && queued[n-1]+1 != d.tail || n == 0 && (d.tail != 0 || d.head != 0) {
		t.Fatalf("step %d: %d handles queued for %d edges, the last %v, the tail %d", step, n, d.g.NumEdges(), queued[max(n-1, 0):], d.tail-1)
	}
	for _, h := range recs.released() {
		if isEdge(h) || held[h] {
			t.Fatalf("step %d: free handle %d is live or also queued or free", step, h)
		}
		held[h] = true
	}
	if len(held) != int(recs.n) {
		t.Fatalf("step %d: %d handles handed out, %d queued or free", step, recs.n, len(held))
	}
}

func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDynamicMatchesNaiveModel runs Dynamic against model over 40 turnovers
// of the window: a hub with a live degree of at least 256 at its peak, warm and
// cold vertices that go isolated and come back, parallel edges, self-loops,
// arrivals out of order within the slack, equal timestamps, time signals
// without an edge, and the ID of an expired edge arriving again on a later
// edge. After every step the two must agree, the expiry callback must have
// read exactly the model's expired edges, every chain must hold exactly its
// vertex's live edges, and every handle must be queued or free. The heap after 40 windows
// must be that after 2: the records of expired edges are reused.
func TestDynamicMatchesNaiveModel(t *testing.T) {
	const (
		window  = 200
		slack   = 8
		windows = 40
		hub     = VertexID(1)
	)
	rng := rand.New(rand.NewSource(25))
	m := &model{window: window, slack: slack, cutoff: math.MinInt64,
		edges: make(map[EdgeID]Edge), arrival: make(map[EdgeID]int), vertices: make(map[VertexID]Vertex)}
	expired := make(map[EdgeID]Edge)
	d := NewDynamic(window, WithSlack(slack), WithExpiryCallback(func(e *Edge) {
		expired[e.ID] = *e
	}))
	pick := func() VertexID {
		switch r := rng.Intn(10); {
		case r < 4:
			return hub
		case r < 6:
			return 10 + VertexID(rng.Intn(20)) // warm
		default:
			return 1000 + VertexID(rng.Intn(1000)) // cold: mostly isolated
		}
	}
	types := []string{"a", "b", "c"}
	vtypes := []string{"Host", "Server", ""}
	var (
		clock           Timestamp
		gone            []EdgeID // expired, not yet added again
		reused          int
		last            Edge
		early           uint64
		returned, added int
		hubDegree       int
		isolated        = make(map[VertexID]bool)
	)
	for step := 0; clock < windows*window; step++ {
		clock += Timestamp(rng.Intn(2))
		want := make(map[EdgeID]Edge)
		switch r := rng.Intn(100); {
		case r < 1: // a time signal with no edge
			clock += 2 * slack
			d.AdvanceTo(clock)
			want = m.advance(clock)
		default:
			e := Edge{ID: EdgeID(step + 1), Source: pick(), Target: pick(),
				Type: types[rng.Intn(len(types))], Timestamp: clock}
			switch r := rng.Intn(20); {
			case r < 2 && last.ID != 0: // parallel to the previous edge
				e.Source, e.Target = last.Source, last.Target
			case r < 3:
				e.Target = e.Source
			}
			if rng.Intn(3) == 0 {
				e.Timestamp -= Timestamp(rng.Intn(slack + 1))
			}
			// The expired edge's handle was released: the ID table finds the
			// edge that now has its ID, in that handle or another.
			if n := len(gone); n > 0 && rng.Intn(20) == 0 {
				e.ID, gone = gone[n-1], gone[:n-1]
				reused++
			}
			if rng.Intn(4) == 0 {
				e.Attrs = Attributes{"bytes": Int(int64(step))}
			}
			se := StreamEdge{Edge: e, SourceType: vtypes[rng.Intn(3)], TargetType: vtypes[rng.Intn(3)]}
			if rng.Intn(10) == 0 {
				se.SourceAttrs = Attributes{"os": Int(int64(rng.Intn(3)))}
			}
			for _, v := range []VertexID{e.Source, e.Target} {
				if isolated[v] {
					returned++
					delete(isolated, v)
				}
			}
			if _, err := d.Apply(se); err != nil {
				t.Fatalf("step %d: Apply(%v): %v", step, e, err)
			}
			want = m.apply(se)
			last = e
			added++
		}
		if len(expired) != len(want) {
			t.Fatalf("step %d: callback saw %d expired edges, model expired %d", step, len(expired), len(want))
		}
		for id, e := range want {
			if got, ok := expired[id]; !ok || got.ID != id || got.Source != e.Source || got.Target != e.Target {
				t.Fatalf("step %d: callback saw %v for expired edge %v", step, got, e)
			}
			for _, v := range []VertexID{e.Source, e.Target} {
				if _, live := m.vertices[v]; !live {
					isolated[v] = true
				}
			}
		}
		// Map order is random: the IDs that expired this step are queued for
		// reuse in ID order, so the run is the same every time.
		first := len(gone)
		for id := range want {
			gone = append(gone, id)
		}
		slices.Sort(gone[first:])
		if n := len(gone); n > 64 {
			gone = append(gone[:0], gone[n-64:]...)
		}
		clear(expired)
		m.compare(t, step, d)
		hubDegree = max(hubDegree, listLen(d.Graph().OutEdges(hub))+listLen(d.Graph().InEdges(hub)))
		if early == 0 && clock >= 2*window {
			early = heapInUse()
		}
	}
	late := heapInUse()
	t.Logf("%d edges (%d reusing an expired ID), %d vertex returns, hub degree up to %d; heap %d KiB after 2 windows, %d KiB after %d",
		added, reused, returned, hubDegree, early>>10, late>>10, windows)
	if d.ExpiredTotal() < uint64(added/2) || returned < added/4 || hubDegree < 256 || reused < 50 {
		t.Fatalf("the stream did not churn: %d of %d edges expired, %d vertex returns, hub degree %d, %d IDs reused",
			d.ExpiredTotal(), added, returned, hubDegree, reused)
	}
	if late > early+256<<10 {
		t.Errorf("heap grew from %d KiB after 2 windows to %d KiB after %d", early>>10, late>>10, windows)
	}
}
