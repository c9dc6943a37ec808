package streamworks_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/server"
)

// echoQuery is a two-edge pattern: a ping and its reply between the same
// pair of hosts within one minute.
const echoQuery = `query icmp-echo
window 1m
vertex a : Host
vertex b : Host
edge a -[icmp-req]-> b
edge b -[icmp-reply]-> a
`

// echoEdges returns a request/reply pair that completes the pattern.
func echoEdges(base streamworks.Timestamp) []streamworks.StreamEdge {
	return []streamworks.StreamEdge{
		{
			Edge:       streamworks.Edge{ID: 1, Source: 10, Target: 20, Type: "icmp-req", Timestamp: base},
			SourceType: "Host", TargetType: "Host",
		},
		{
			Edge:       streamworks.Edge{ID: 2, Source: 20, Target: 10, Type: "icmp-reply", Timestamp: base.Add(time.Second)},
			SourceType: "Host", TargetType: "Host",
		},
	}
}

// ExampleNew runs a continuous query on the in-process single engine:
// register, subscribe, stream — matches are pushed to the sink as the edges
// that complete them arrive.
func ExampleNew() {
	ctx := context.Background()
	q, err := streamworks.ParseQuery(echoQuery)
	if err != nil {
		panic(err)
	}

	eng := streamworks.New(streamworks.WithEngineConfig(streamworks.EngineConfig{Retention: time.Minute}))
	defer eng.Close()
	if err := eng.RegisterQuery(ctx, q); err != nil {
		panic(err)
	}
	sub, err := eng.Subscribe("icmp-echo", streamworks.SinkFunc(func(m streamworks.Match) {
		fmt.Printf("%s matched: %d vertices bound, %d edges\n", m.Query, len(m.Bindings), len(m.EdgeIDs))
	}))
	if err != nil {
		panic(err)
	}

	base := streamworks.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))
	if err := eng.ProcessBatch(ctx, echoEdges(base)); err != nil {
		panic(err)
	}
	eng.Close()
	<-sub.Done()
	// Output: icmp-echo matched: 2 vertices bound, 2 edges
}

// ExampleConnect drives a streamworksd daemon over HTTP through the same
// Engine interface. Here the daemon runs in-process on an httptest
// listener; in production it is `streamworksd -addr :8090`.
func ExampleConnect() {
	ctx := context.Background()
	daemon := server.New(server.Config{})
	hs := httptest.NewServer(daemon)
	defer hs.Close()

	eng, err := streamworks.Connect(ctx, hs.URL)
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	fmt.Printf("connected: api %s\n", eng.ServerInfo().Version)

	q, err := streamworks.ParseQuery(echoQuery)
	if err != nil {
		panic(err)
	}
	if err := eng.RegisterQuery(ctx, q); err != nil {
		panic(err)
	}
	sub, err := eng.Subscribe("icmp-echo", streamworks.SinkFunc(func(m streamworks.Match) {
		fmt.Printf("%s matched over HTTP\n", m.Query)
	}))
	if err != nil {
		panic(err)
	}

	base := streamworks.TimestampFromTime(time.Date(2013, 6, 22, 0, 0, 0, 0, time.UTC))
	if err := eng.ProcessBatch(ctx, echoEdges(base)); err != nil {
		panic(err)
	}
	daemon.Close() // drain: the subscription ends after its final delivery
	<-sub.Done()
	// Output:
	// connected: api v1
	// icmp-echo matched over HTTP
}
