package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/api"
	"github.com/streamworks/streamworks/internal/client"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/query"
)

// TestRegisterWithStrategyAndAdaptive exercises the planning options on
// POST /v1/queries end to end: the strategy and adaptive parameters are
// honored, echoed in the registration response, and visible per query on
// /v1/metrics.
func TestRegisterWithStrategyAndAdaptive(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	resp, err := c.RegisterQueryWith(ctx, gen.SmurfQuery(30*time.Second),
		api.RegisterOptions{Strategy: "lazy", Adaptive: true})
	if err != nil {
		t.Fatalf("register with options: %v", err)
	}
	if resp.Strategy != "lazy" || !resp.Adaptive {
		t.Fatalf("response does not reflect options: strategy=%q adaptive=%v", resp.Strategy, resp.Adaptive)
	}

	// Default registration: selective, frozen.
	resp2, err := c.RegisterQuery(ctx, gen.WormQuery(30*time.Second))
	if err != nil {
		t.Fatalf("register default: %v", err)
	}
	if resp2.Strategy != "selective" || resp2.Adaptive {
		t.Fatalf("default registration: strategy=%q adaptive=%v", resp2.Strategy, resp2.Adaptive)
	}

	// Every spelling of ?adaptive= the daemon accepts, and one it does not.
	pair := func(name string) string {
		return query.Format(query.NewBuilder(name).Vertex("a", "Host").Vertex("b", "Host").Edge("a", "b", "flow").MustBuild())
	}
	want := map[string]bool{"smurf-ddos": true, "worm-hop": false}
	for i, tc := range []struct {
		param    string
		status   int
		adaptive bool
	}{
		{"on", http.StatusCreated, true}, {"1", http.StatusCreated, true}, {"TRUE", http.StatusCreated, true},
		{"off", http.StatusCreated, false}, {"0", http.StatusCreated, false}, {"false", http.StatusCreated, false},
		{"maybe", http.StatusBadRequest, false},
	} {
		name := "pair-" + string(rune('a'+i))
		r, err := http.Post(hs.URL+"/v1/queries?adaptive="+tc.param, "text/plain", strings.NewReader(pair(name)))
		if err != nil {
			t.Fatal(err)
		}
		var got api.RegisterResponse
		json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if r.StatusCode != tc.status || tc.status == http.StatusCreated && got.Adaptive != tc.adaptive {
			t.Fatalf("?adaptive=%s: HTTP %d adaptive=%v, want %d adaptive=%v", tc.param, r.StatusCode, got.Adaptive, tc.status, tc.adaptive)
		}
		if tc.status == http.StatusCreated {
			want[name] = tc.adaptive
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if len(m.Engine.Queries) != len(want) {
		t.Fatalf("%d queries on /v1/metrics, want %d", len(m.Engine.Queries), len(want))
	}
	for _, q := range m.Engine.Queries {
		if q.PlanGeneration < 1 || q.PlanNodes == 0 {
			t.Fatalf("metrics missing plan info for %s: %+v", q.Name, q)
		}
		if q.Name == "smurf-ddos" && q.Strategy != "lazy" {
			t.Fatalf("smurf-ddos runs %q on /v1/metrics, registered lazy", q.Strategy)
		}
		if q.Adaptive != want[q.Name] {
			t.Fatalf("query %s adaptive=%v on /v1/metrics, want %v", q.Name, q.Adaptive, want[q.Name])
		}
	}

	// An unknown strategy is unprocessable.
	r, err := http.Post(hs.URL+"/v1/queries?strategy=bogus", "text/plain", strings.NewReader(pair("q3")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bogus strategy: HTTP %d, want 422", r.StatusCode)
	}
}
