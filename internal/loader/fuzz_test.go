package loader_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/streamworks/streamworks/internal/gen"
	"github.com/streamworks/streamworks/internal/loader"
	"github.com/streamworks/streamworks/internal/wire"
)

// FuzzNDJSONDecode fuzzes the NDJSON wire decoder with generator-produced
// streams as seeds. The decoder guards a trust boundary (swload and the
// daemon both ingest operator-supplied files), so the bar is: arbitrary
// bytes either fail cleanly or decode into edges that round-trip — a
// re-encode of the decoded edges must itself decode to the same edges, and
// two encodes of the same edges must be byte-identical (the determinism
// invariant the maporder analyzer enforces statically).
//
// This test lives in package loader_test because the seed corpus comes from
// internal/gen, which itself imports loader.
func FuzzNDJSONDecode(f *testing.F) {
	// Seed 1-2: real generator output, the format as actually written.
	nfCfg := gen.DefaultNetFlowConfig()
	nfCfg.Hosts, nfCfg.Servers, nfCfg.Edges = 20, 4, 40
	var nf bytes.Buffer
	if err := gen.NetFlowWorkload(nfCfg, time.Minute).NDJSON(&nf); err != nil {
		f.Fatal(err)
	}
	f.Add(nf.Bytes())

	newsCfg := gen.DefaultNewsConfig()
	newsCfg.Articles = 12
	var news bytes.Buffer
	if err := gen.NewsWorkload(newsCfg, time.Minute, 2).NDJSON(&news); err != nil {
		f.Fatal(err)
	}
	f.Add(news.Bytes())

	// Hand-written edge cases: empty input, blank lines, truncated JSON,
	// unknown fields, every attribute kind, an unknown kind, extreme
	// numbers, and a negative timestamp.
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"id":1,"source":2,"target":3,"type":"flow","ts":10}`))
	f.Add([]byte(`{"id":1,"source":2,"target":3,"type":"flow","ts":10,"bogus":[1,2]}`))
	f.Add([]byte(`{"id":1,"source":2,"target":3,"type":"x","ts":-5,"attrs":{"s":{"kind":"string","s":"v"},"i":{"kind":"int","i":-9},"f":{"kind":"float","f":0.5},"b":{"kind":"bool","b":true}}}`))
	f.Add([]byte(`{"id":1,"source":2,"target":3,"type":"flow","ts":5,"attrs":{"x":{"kind":"integer","i":7}}}`))
	f.Add([]byte(`{"id":1,"source":2,"target":3,"type":"flow","ts":5,"source_attrs":{"os":{"kind":"invalid"}}}`))
	f.Add([]byte(`{"id":1,"source":2,"target":3,"type":"flow","ts":5,"target_attrs":{"os":{"s":"linux"}}}`))
	f.Add([]byte("{\"id\":1,\"source\":2,\"target\":3,\"type\":\"flow\",\"ts\":5}\n" +
		`{"id":2,"source":2,"target":3,"type":"flow","ts":6,"attrs":{"x":{"kind":"uint","i":7}}}`))
	f.Add([]byte(`{"id":18446744073709551615,"source":0,"target":0,"type":"","ts":9223372036854775807}`))
	f.Add([]byte(`{"id":1,"source":2,`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		edges, err := loader.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // rejecting malformed input cleanly is a pass
		}

		// Every edge accepted survives the write-ahead log's encoding.
		if len(edges) > 0 {
			logged, err := wire.DecodeEdges(wire.AppendEdges(nil, edges))
			if err != nil {
				t.Fatalf("decoded edges failed the binary round trip: %v", err)
			}
			if !reflect.DeepEqual(edges, logged) {
				t.Fatalf("the binary round trip changed the edges:\nfirst:  %#v\nsecond: %#v", edges, logged)
			}
		}

		var enc1 bytes.Buffer
		if err := loader.WriteJSONL(&enc1, edges); err != nil {
			t.Fatalf("decoded edges failed to re-encode: %v", err)
		}
		again, err := loader.ReadJSONL(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if !reflect.DeepEqual(edges, again) {
			t.Fatalf("round-trip changed the edges:\nfirst:  %#v\nsecond: %#v", edges, again)
		}

		var enc2 bytes.Buffer
		if err := loader.WriteJSONL(&enc2, again); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding is not deterministic:\nfirst:  %q\nsecond: %q", enc1.Bytes(), enc2.Bytes())
		}
	})
}
