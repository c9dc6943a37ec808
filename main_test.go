package streamworks_test

import (
	"testing"

	"github.com/streamworks/streamworks/internal/testutil/leakcheck"
)

// TestMain gates the package on goroutine hygiene: Close on every backend
// must stop what the backend started — the WAL's appender, a Remote's
// receive loops.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
