// Package shard keeps the names the benchmark harness under benchmark/
// drives the engine by: Config, New and ShardedEngine. Each is a call into
// the in-process backend streamworks.New builds, so the harness's shard
// lanes and server.Config.Shard exercise the product path.
//
// The package keeps the name it had while it divided the registered queries
// between several engines, each on a goroutine of its own and each applying
// every edge to a window of its own. One engine reached every number two or
// four did, on less CPU (README "Shard rows"), so that split was deleted.
package shard

import (
	"context"

	"github.com/streamworks/streamworks"
	"github.com/streamworks/streamworks/internal/core"
	"github.com/streamworks/streamworks/internal/graph"
	"github.com/streamworks/streamworks/internal/query"
)

// Config configures the engine.
type Config struct {
	// Shards is read by nothing: a process runs one engine, whatever the
	// count. The field stays because benchmark/ sets it.
	Shards int
	// Engine is the engine's configuration.
	Engine core.Config
}

// ShardedEngine is the backend streamworks.New builds, driven without a
// context or a subscription: its matches are counted, not delivered.
type ShardedEngine struct {
	b   *streamworks.Sharded
	one [1]graph.StreamEdge // Process's batch of one
}

// New builds the backend on cfg's engine configuration. cfg may be nil, the
// same as &Config{}.
func New(cfg *Config) *ShardedEngine {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	return &ShardedEngine{b: streamworks.New(streamworks.WithEngineConfig(c.Engine))}
}

// Start does nothing.
func (s *ShardedEngine) Start() {}

// RegisterQuery registers a continuous query on its selective plan.
func (s *ShardedEngine) RegisterQuery(q *query.Graph) error {
	return s.b.RegisterQuery(context.Background(), q)
}

// Process hands one stream edge to the engine, as a batch of one.
func (s *ShardedEngine) Process(se graph.StreamEdge) error {
	s.one[0] = se
	return s.b.ProcessBatch(context.Background(), s.one[:])
}

// Flush returns at once: every Process call has finished with its edge.
func (s *ShardedEngine) Flush() error { return s.b.Flush() }

// Close closes the backend; Metrics stay readable.
func (s *ShardedEngine) Close() { s.b.Close() }

// Metrics is the engine's view.
func (s *ShardedEngine) Metrics() core.Metrics {
	m, _ := s.b.Metrics(context.Background())
	return m
}

// PerShardMetrics returns the engine's view, alone.
func (s *ShardedEngine) PerShardMetrics() []core.Metrics {
	return []core.Metrics{s.Metrics()}
}
