package server

import (
	"context"
	"io"
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

// pairDSL is a one-edge query named name, in the text DSL.
func pairDSL(name string) string {
	return query.Format(query.NewBuilder(name).Vertex("a", "Host").Vertex("b", "Host").Edge("a", "b", "flow").MustBuild())
}

// TestRegisterWithStrategy exercises the plan option on POST /v1/queries end
// to end: the strategy parameter is honored, echoed in the registration
// response and visible per query on /v1/metrics, and an unknown one is
// unprocessable.
func TestRegisterWithStrategy(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	resp, err := c.RegisterQueryWith(ctx, gen.SmurfQuery(30*time.Second), api.RegisterOptions{Strategy: "lazy"})
	if err != nil {
		t.Fatalf("register with options: %v", err)
	}
	if resp.Strategy != "lazy" {
		t.Fatalf("response does not reflect the strategy: %q", resp.Strategy)
	}
	// Default registration: selective.
	resp2, err := c.RegisterQuery(ctx, gen.WormQuery(30*time.Second))
	if err != nil {
		t.Fatalf("register default: %v", err)
	}
	if resp2.Strategy != "selective" {
		t.Fatalf("default registration: strategy=%q", resp2.Strategy)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	want := map[string]string{"smurf-ddos": "lazy", "worm-hop": "selective"}
	if len(m.Engine.Queries) != len(want) {
		t.Fatalf("%d queries on /v1/metrics, want %d", len(m.Engine.Queries), len(want))
	}
	for _, q := range m.Engine.Queries {
		if q.PlanNodes == 0 || string(q.Strategy) != want[q.Name] {
			t.Fatalf("query %s on /v1/metrics: %+v, registered %s", q.Name, q, want[q.Name])
		}
	}

	// An unknown strategy is unprocessable.
	r, err := http.Post(hs.URL+"/v1/queries?strategy=bogus", "text/plain", strings.NewReader(pairDSL("q3")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bogus strategy: HTTP %d, want 422", r.StatusCode)
	}
}

// TestRegisterIgnoresAdaptiveParameter: a query keeps the plan it was
// registered with, and the daemon ignores ?adaptive=, which clients sent to
// opt a query into runtime re-planning, like any parameter it does not
// know — every spelling, the ones it once refused included, registers the
// query under its strategy, and neither the response nor /v1/metrics
// mentions it.
func TestRegisterIgnoresAdaptiveParameter(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for i, param := range []string{"on", "off", "TRUE", "maybe"} {
		name := "pair-" + string(rune('a'+i))
		r, err := http.Post(hs.URL+"/v1/queries?strategy=eager&adaptive="+param, "text/plain", strings.NewReader(pairDSL(name)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusCreated || strings.Contains(string(body), "adaptive") || !strings.Contains(string(body), `"strategy":"eager"`) {
			t.Fatalf("?adaptive=%s: HTTP %d %s", param, r.StatusCode, body)
		}
	}
	r, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if strings.Contains(strings.ToLower(string(body)), "adaptive") || strings.Contains(string(body), "replan") {
		t.Fatalf("/v1/metrics still reports re-planning: %s", body)
	}
}
