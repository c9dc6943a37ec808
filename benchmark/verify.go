package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// Matches are compared as sets of 64-bit FNV-1a hashes of their identity, so
// a pass can record half a million deliveries in a preallocated slice without
// distorting the allocation and heap numbers it is measuring.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// sigKey identifies a match the way every backend does: (query, signature).
func sigKey(query, signature string) uint64 {
	return fnvString(fnvString(fnvOffset, query)*fnvPrime, signature)
}

// idsKey identifies a match of query by a sorted list of data IDs — its data
// edges, or its bound vertices — which is what the generators' ground truth
// can be phrased in.
func idsKey(query string, sorted []uint64) uint64 {
	h := fnvString(fnvOffset, query) * fnvPrime
	for _, id := range sorted {
		h = fnvUint(h, id)
	}
	return h
}

// sortedSet sorts keys and removes duplicates in place.
func sortedSet(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
}

// setDiff counts the elements only in a and only in b; both are sorted sets.
func setDiff(a, b []uint64) (onlyA, onlyB int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			onlyA++
			i++
		default:
			onlyB++
			j++
		}
	}
	return onlyA + len(a) - i, onlyB + len(b) - j
}

func contains(set []uint64, k uint64) bool {
	_, ok := slices.BinarySearch(set, k)
	return ok
}

// digest is the checked-in identity of a match set: its size and a SHA-256
// over the sorted match keys.
type digest struct {
	Seed    int64  `json:"seed"`
	Seconds int    `json:"seconds"`
	Matches int    `json:"matches"`
	SHA256  string `json:"sha256"`
}

func digestOf(set []uint64) (int, string) {
	h := sha256.New()
	var b [8]byte
	for _, k := range set {
		binary.BigEndian.PutUint64(b[:], k)
		h.Write(b[:])
	}
	return len(set), hex.EncodeToString(h.Sum(nil))
}

func loadDigests(path string) (map[string]digest, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]digest{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := map[string]digest{}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func saveDigests(path string, ds map[string]digest) error {
	raw, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// expectation is what the generators' ground truth requires of the delivered
// set: for every injected attack and event cluster, the matches it must
// produce under every registered query it fits.
type expectation struct {
	edgeKeys   []uint64 // idsKey(query, data edges) that must be delivered
	vertexKeys []uint64 // idsKey(query, bound vertices) that must be delivered
	instances  int      // injected attacks + event clusters behind them
}

// family strips the "-vNNN" suffix gen.QueryVariants appends, so the Fig. 3
// suite and its generated variants resolve to the same pattern family.
func family(name string) string {
	if i := strings.LastIndex(name, "-v"); i >= 0 && len(name)-i == 5 {
		name = name[:i]
	}
	switch name {
	case "smurf-ddos":
		return "smurf"
	case "worm-hop":
		return "worm"
	case "exfiltration":
		return "exfil"
	case "news-event":
		return "news2"
	}
	return name
}

// expect derives the expectation from the inputs' ground truth. A match is
// expected only when its edges span strictly less than the query's window.
func expect(in *inputs) expectation {
	var ex expectation
	ex.instances = len(in.attacks) + len(in.events)

	within := func(ids []uint64, window graph.Timestamp) bool {
		lo, hi := graph.Timestamp(1<<62), graph.Timestamp(0)
		for _, id := range ids {
			p := in.position(id)
			if p < 0 {
				return false
			}
			ts := in.edges[p].Edge.Timestamp
			lo, hi = min(lo, ts), max(hi, ts)
		}
		return window <= 0 || hi-lo < window
	}
	// Publication time per event article, for the window test on clusters.
	published := map[graph.VertexID]graph.Timestamp{}
	if len(in.events) > 0 {
		wanted := map[graph.VertexID]bool{}
		for _, ev := range in.events {
			for _, a := range ev.Articles {
				wanted[a] = true
			}
		}
		for i := range in.edges {
			if e := &in.edges[i].Edge; wanted[e.Source] {
				published[e.Source] = e.Timestamp
			}
		}
	}

	for _, q := range in.queries {
		name, window := q.Name(), graph.Timestamp(q.Window())
		addEdges := func(ids ...graph.EdgeID) {
			sorted := make([]uint64, len(ids))
			for i, id := range ids {
				sorted[i] = uint64(id)
			}
			slices.Sort(sorted)
			if within(sorted, window) {
				ex.edgeKeys = append(ex.edgeKeys, idsKey(name, sorted))
			}
		}
		fam := family(name)
		for _, a := range in.attacks {
			ids := a.EdgeIDs
			switch {
			case fam == "smurf" && a.Kind == gen.AttackSmurf:
				for i := 0; i+1 < len(ids); i += 2 {
					addEdges(ids[i], ids[i+1]) // request to, reply from, one amplifier
				}
			case fam == "worm" && a.Kind == gen.AttackWorm:
				for i := 0; i+2 < len(ids); i += 3 {
					addEdges(ids[i], ids[i+1], ids[i+2]) // scan, flow, infect of one hop
				}
			case fam == "worm-chain" && a.Kind == gen.AttackWorm:
				for i := 0; i+5 < len(ids); i += 3 {
					addEdges(ids[i+2], ids[i+3], ids[i+5]) // infect, then the victim's scan and infect
				}
			case fam == "exfil" && a.Kind == gen.AttackExfiltration:
				addEdges(ids...)
			}
		}
		arity := map[string]int{"news2": 2, "news3": 3}[fam]
		if arity == 0 {
			continue
		}
		for _, ev := range in.events {
			forEachSubset(ev.Articles, arity, func(articles []graph.VertexID) {
				lo, hi := graph.Timestamp(1<<62), graph.Timestamp(0)
				for _, a := range articles {
					lo, hi = min(lo, published[a]), max(hi, published[a])
				}
				if window > 0 && hi-lo >= window {
					return
				}
				sorted := []uint64{uint64(ev.Keyword), uint64(ev.Location)}
				for _, a := range articles {
					sorted = append(sorted, uint64(a))
				}
				slices.Sort(sorted)
				ex.vertexKeys = append(ex.vertexKeys, idsKey(name, sorted))
			})
		}
	}
	ex.edgeKeys = sortedSet(ex.edgeKeys)
	ex.vertexKeys = sortedSet(ex.vertexKeys)
	return ex
}

// forEachSubset calls fn with every k-element subset of vs, in order.
func forEachSubset(vs []graph.VertexID, k int, fn func([]graph.VertexID)) {
	pick := make([]graph.VertexID, 0, k)
	var rec func(from int)
	rec = func(from int) {
		if len(pick) == k {
			fn(pick)
			return
		}
		for i := from; i < len(vs); i++ {
			pick = append(pick, vs[i])
			rec(i + 1)
			pick = pick[:len(pick)-1]
		}
	}
	rec(0)
}

// referenceSet replays the whole stream through an independent, untimed
// in-process engine under the given queries and returns the sorted set of
// matches it delivers. The
// reference keeps no stream summaries: they steer planning, never the match
// set, and on the netflow stream they are most of the per-edge cost.
func referenceSet(w *workload, in *inputs, queries []*query.Graph) ([]uint64, error) {
	eng := streamworks.New(append(w.refOptions(in), streamworks.WithSummaries(false))...)
	defer eng.Close()
	ctx := context.Background()
	for _, q := range queries {
		if err := eng.RegisterQuery(ctx, q); err != nil {
			return nil, fmt.Errorf("reference: registering %s: %w", q.Name(), err)
		}
	}
	var keys []uint64
	if _, err := eng.Subscribe("", streamworks.SinkFunc(func(m streamworks.Match) {
		keys = append(keys, sigKey(m.Query, m.Signature))
	})); err != nil {
		return nil, err
	}
	for _, batch := range batchesOf(in.edges) {
		if err := eng.ProcessBatch(ctx, batch); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	return sortedSet(keys), nil
}
