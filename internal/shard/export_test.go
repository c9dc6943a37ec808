package shard

import "github.com/streamworks/streamworks"

// Backend returns the backend s drives, for the tests to subscribe to it and
// to reach the calls the harness does not make.
func Backend(s *ShardedEngine) *streamworks.Sharded { return s.b }
