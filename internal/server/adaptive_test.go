package server

import (
	"context"
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
// honored, reflected in the registration response, and visible per query on
// /v1/metrics.
func TestRegisterWithStrategyAndAdaptive(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	resp, err := c.RegisterQueryWith(ctx, gen.SmurfQuery(30*time.Second),
		api.RegisterOptions{Strategy: "lazy", Adaptive: "on"})
	if err != nil {
		t.Fatalf("register with options: %v", err)
	}
	if resp.Strategy != "lazy" || !resp.Adaptive {
		t.Fatalf("response does not reflect options: strategy=%q adaptive=%v", resp.Strategy, resp.Adaptive)
	}

	// Default registration on a non-adaptive daemon: selective, frozen.
	resp2, err := c.RegisterQuery(ctx, gen.WormQuery(30*time.Second))
	if err != nil {
		t.Fatalf("register default: %v", err)
	}
	if resp2.Strategy != "selective" || resp2.Adaptive {
		t.Fatalf("default registration: strategy=%q adaptive=%v", resp2.Strategy, resp2.Adaptive)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	byName := map[string]bool{}
	for _, q := range m.Engine.Queries {
		byName[q.Name] = q.Adaptive
		if q.PlanGeneration < 1 || q.PlanNodes == 0 {
			t.Fatalf("metrics missing plan info for %s: %+v", q.Name, q)
		}
	}
	if !byName["smurf-ddos"] || byName["worm-hop"] {
		t.Fatalf("per-query adaptive flags wrong on /v1/metrics: %+v", byName)
	}

	// Unknown strategy and malformed adaptive values are client errors.
	pair := func(name string) *query.Graph {
		return query.NewBuilder(name).Vertex("a", "Host").Vertex("b", "Host").Edge("a", "b", "flow").MustBuild()
	}
	if _, err := c.RegisterQueryWith(ctx, pair("q3"),
		api.RegisterOptions{Strategy: "bogus"}); err == nil || !strings.Contains(err.Error(), "422") && !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("bogus strategy accepted: %v", err)
	}
	if _, err := c.RegisterQueryWith(ctx, pair("q4"),
		api.RegisterOptions{Adaptive: "maybe"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bogus adaptive value accepted: %v", err)
	}
}

// TestDaemonDefaultAdaptive: a server configured with AdaptivePlanning
// applies it to registrations by default, with ?adaptive=off as the
// per-query escape hatch.
func TestDaemonDefaultAdaptive(t *testing.T) {
	srv := New(Config{AdaptivePlanning: true, DefaultStrategy: "selective"})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	resp, err := c.RegisterQuery(ctx, gen.SmurfQuery(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Adaptive {
		t.Fatalf("daemon default adaptive not applied")
	}
	resp2, err := c.RegisterQueryWith(ctx, gen.WormQuery(30*time.Second), api.RegisterOptions{Adaptive: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Adaptive {
		t.Fatalf("?adaptive=off did not override the daemon default")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range m.Engine.Queries {
		want := q.Name == "smurf-ddos"
		if q.Adaptive != want {
			t.Fatalf("query %s adaptive=%v, want %v", q.Name, q.Adaptive, want)
		}
	}
}
