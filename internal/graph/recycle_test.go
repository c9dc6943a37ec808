package graph

import (
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
		ids := make([]EdgeID, got.Len())
		for i := range ids {
			e := got.At(i)
			if !sameEdge(*e, m.edges[e.ID]) {
				t.Fatalf("step %d: %s edges of v%d hold %v, model has %v", step, dir, v, e, m.edges[e.ID])
			}
			ids[i] = e.ID
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
	visited := make(map[EdgeID]bool)
	d.ForEachLiveEdge(func(e *Edge) bool {
		if got, _ := g.Edge(e.ID); got != e || visited[e.ID] {
			t.Fatalf("step %d: ForEachLiveEdge visits %v, which is not the live edge %d or was visited before", step, e, e.ID)
		}
		visited[e.ID] = true
		return true
	})
	if len(visited) != len(m.edges) {
		t.Fatalf("step %d: ForEachLiveEdge visits %d edges, model has %d", step, len(visited), len(m.edges))
	}
	checkRecycling(t, step, d)
}

// checkRecycling fails t when a spare is not empty, when an incidence list
// or the expiry queue holds a handle that is not a live edge (of its vertex),
// when a handle handed out is neither in the expiry queue nor free or is
// both, or when two lists, live or spare, share a backing array.
func checkRecycling(t *testing.T, step int, d *Dynamic) {
	t.Helper()
	type list struct {
		kind string
		v    VertexID
	}
	owner := make(map[*int32]list)
	claim := func(l []int32, who list) {
		base := &l[:cap(l)][0]
		if prev, dup := owner[base]; dup {
			t.Fatalf("step %d: %+v and %+v share a backing array", step, prev, who)
		}
		owner[base] = who
	}
	for c, spares := range d.g.spares {
		for _, l := range spares {
			if len(l) != 0 || cap(l) < 2<<c {
				t.Fatalf("step %d: spare of class %d has len %d cap %d", step, c, len(l), cap(l))
			}
			claim(l, list{kind: "spare"})
		}
	}
	recs := &d.g.records
	// isEdge reports whether h is the handle the ID table files its record's
	// ID under: the live edge of that ID.
	isEdge := func(h int32) bool { return d.g.edges.find(recs, recs.at(h).ID) == h }
	live := func(f fifo, who list, valid func(h int32) bool) {
		if f.buf == nil {
			return
		}
		for i, h := range f.live() {
			if h < 0 || h >= recs.n || !valid(h) {
				t.Fatalf("step %d: %+v holds handle %d in slot %d, which it must not", step, who, h, f.head+i)
			}
		}
		claim(f.buf, who)
	}
	for v, r := range d.g.vertices {
		if r.ID != v {
			t.Fatalf("step %d: vertex %d is filed under %d", step, r.ID, v)
		}
		if r.out.buf != nil && r.out.len() == 0 || r.in.buf != nil && r.in.len() == 0 {
			t.Fatalf("step %d: vertex %d keeps an empty list", step, v)
		}
		live(r.out, list{"out", v}, func(h int32) bool { return isEdge(h) && recs.at(h).Source == v })
		live(r.in, list{"in", v}, func(h int32) bool { return isEdge(h) && recs.at(h).Target == v })
	}
	// An edge leaves the graph only when the queue passes its handle, which
	// is then released: every handle handed out is a live edge in the queue
	// or free, once, and the queue holds every live edge.
	held := make(map[int32]bool)
	hold := func(h int32) bool {
		dup := held[h]
		held[h] = true
		return !dup
	}
	live(d.queue, list{kind: "queue"}, func(h int32) bool { return isEdge(h) && hold(h) })
	for _, h := range recs.free {
		if isEdge(h) || !hold(h) {
			t.Fatalf("step %d: free handle %d is live or also queued or free", step, h)
		}
	}
	if len(held) != int(recs.n) {
		t.Fatalf("step %d: %d handles handed out, %d queued or free", step, recs.n, len(held))
	}
	if d.queue.len() != d.g.NumEdges() {
		t.Fatalf("step %d: %d handles queued, %d edges", step, d.queue.len(), d.g.NumEdges())
	}
}

func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDynamicMatchesNaiveModel runs Dynamic against model over 40 turnovers
// of the window: a hub whose lists grow through every spare class, warm and
// cold vertices that go isolated and come back, parallel edges, self-loops,
// arrivals out of order within the slack, equal timestamps, time signals
// without an edge, and the ID of an expired edge arriving again on a later
// edge. After every step the two must agree, the expiry callback must have
// read exactly the model's expired edges, and no recycled list may share its
// array, and every handle must be queued or free. The heap after 40 windows
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
		hubCap          int
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
		if r := d.g.vertices[hub]; r != nil {
			hubCap = max(hubCap, cap(r.out.live()))
		}
		if early == 0 && clock >= 2*window {
			early = heapInUse()
		}
	}
	late := heapInUse()
	t.Logf("%d edges (%d reusing an expired ID), %d vertex returns, hub list capacity up to %d; heap %d KiB after 2 windows, %d KiB after %d",
		added, reused, returned, hubCap, early>>10, late>>10, windows)
	if d.ExpiredTotal() < uint64(added/2) || returned < added/4 || hubCap < 256 || reused < 50 {
		t.Fatalf("the stream did not churn: %d of %d edges expired, %d vertex returns, hub capacity %d, %d IDs reused",
			d.ExpiredTotal(), added, returned, hubCap, reused)
	}
	if late > early+256<<10 {
		t.Errorf("heap grew from %d KiB after 2 windows to %d KiB after %d", early>>10, late>>10, windows)
	}
}
