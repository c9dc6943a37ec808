package shard

import (
	"testing"

	"github.com/streamworks/streamworks/internal/testutil/leakcheck"
)

// TestMain gates the package on goroutine hygiene: every worker goroutine
// must be gone once Close has returned, so a leak here means the sharded
// drain protocol regressed.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
