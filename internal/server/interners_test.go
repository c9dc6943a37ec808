package server

import (
	"net/http"
	"runtime"
	"slices"
	"testing"

	"github.com/streamworks/streamworks/internal/wire"
)

// listed returns the interners on srv's free list, in list order, and
// leaves them listed. No ingest may be running.
func listed(srv *Server) []*wire.Interner {
	var ins []*wire.Interner
	for range len(srv.interners) {
		ins = append(ins, <-srv.interners)
	}
	for _, in := range ins {
		srv.interners <- in
	}
	return ins
}

// TestIngestInternerFreeList: a binary ingest request decodes through an
// interner from its server's free list and lists it again when it is done.
// Two sequential requests decode through one interner; two concurrent ones
// through two, the second made while the first holds the listed one. More
// concurrent requests than GOMAXPROCS leave GOMAXPROCS distinct interners
// listed, and drop the rest.
func TestIngestInternerFreeList(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	procs := runtime.GOMAXPROCS(0)
	if cap(srv.interners) != procs {
		t.Fatalf("the free list holds up to %d interners, want GOMAXPROCS = %d", cap(srv.interners), procs)
	}
	lane := ingestLanes[1] // binary /v1/edges
	nextID := 1
	body := func() []byte {
		nextID += 10
		return append(append([]byte(nil), lane.head()...), lane.encode(t, flowEdges(nextID, 10))...)
	}
	ingest := func() {
		t.Helper()
		li := startIngest(t, srv, lane)
		li.write(body())
		code, _, ir := li.finish()
		wantIngest(t, code, ir, http.StatusOK, 10)
	}

	ingest()
	first := listed(srv)
	if len(first) != 1 {
		t.Fatalf("after one request the free list holds %d interners, want 1", len(first))
	}
	ingest()
	if again := listed(srv); len(again) != 1 || again[0] != first[0] {
		t.Fatal("a second sequential request did not decode through the first one's interner")
	}

	// a holds the listed interner while b runs: b makes its own, which b
	// lists first when it is done.
	a := startIngest(t, srv, lane)
	a.write(lane.head())
	b := startIngest(t, srv, lane)
	b.write(body())
	code, _, ir := b.finish()
	wantIngest(t, code, ir, http.StatusOK, 10)
	second := listed(srv)
	if len(second) != 1 || second[0] == first[0] {
		t.Fatal("a request running beside another decoded through the other's interner")
	}
	a.write(body()[len(lane.head()):])
	code, _, ir = a.finish()
	wantIngest(t, code, ir, http.StatusOK, 10)
	want := []*wire.Interner{second[0], first[0]}[:min(2, procs)] // a full list drops a's
	if got := listed(srv); !slices.Equal(got, want) {
		t.Fatalf("after two concurrent requests the free list holds %d interners, want b's then a's, up to GOMAXPROCS = %d", len(got), procs)
	}

	var running []*liveIngest
	for range procs + 2 {
		li := startIngest(t, srv, lane)
		li.write(lane.head())
		running = append(running, li)
	}
	if n := len(srv.interners); n != 0 {
		t.Fatalf("%d interners listed while %d requests run, want 0", n, len(running))
	}
	for _, li := range running {
		li.write(body()[len(lane.head()):])
		code, _, ir := li.finish()
		wantIngest(t, code, ir, http.StatusOK, 10)
	}
	got := listed(srv)
	if len(got) != procs {
		t.Fatalf("after %d concurrent requests the free list holds %d interners, want GOMAXPROCS = %d", len(running), len(got), procs)
	}
	for i, in := range got {
		if slices.Contains(got[:i], in) {
			t.Fatal("the free list holds one interner twice")
		}
	}
}
