package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/query"
	"github.com/streamworks/streamworks/internal/shard"
)

// TestQueryRegistryIsTheEngines: the serving layer keeps no copy of the
// registrations, so the listing is the engine's name-sorted one — the same
// answer to the same request — and the subscription filter knows a query for
// exactly as long as the engine does.
func TestQueryRegistryIsTheEngines(t *testing.T) {
	_, ts := newTestServer(t, Config{Shard: shard.Config{Shards: 2}})
	dsl := query.Format(gen.SmurfQuery(time.Minute))
	names := []string{"mike", "alpha", "zulu", "echo", "kilo", "bravo"}
	for _, name := range names {
		resp := postDSL(t, ts.URL, strings.Replace(dsl, "smurf-ddos", name, 1))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: HTTP %d", name, resp.StatusCode)
		}
	}
	for round := 0; round < 3; round++ {
		resp, err := http.Get(ts.URL + "/v1/queries")
		if err != nil {
			t.Fatalf("GET /v1/queries: %v", err)
		}
		var infos []QueryInfo
		err = json.NewDecoder(resp.Body).Decode(&infos)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding listing: %v", err)
		}
		var got []string
		for _, qi := range infos {
			got = append(got, qi.Name)
		}
		if want := "alpha bravo echo kilo mike zulu"; strings.Join(got, " ") != want {
			t.Fatalf("listing = %v, want %s", got, want)
		}
	}

	status := func(method, path string) int {
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(http.MethodDelete, "/v1/queries/echo"); got != http.StatusNoContent {
		t.Fatalf("unregister echo: HTTP %d", got)
	}
	for _, path := range []string{"/v1/matches?query=echo", "/v1/queries/echo"} {
		if got := status(http.MethodGet, path); got != http.StatusNotFound {
			t.Fatalf("GET %s after unregister: HTTP %d, want 404", path, got)
		}
	}
}
