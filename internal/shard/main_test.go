package shard

import (
	"testing"

	"github.com/streamworks/streamworks/internal/testutil/leakcheck"
)

// TestMain gates the package on goroutine hygiene: the backend starts no
// goroutine, so a leak here is a test's own or a regression.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
