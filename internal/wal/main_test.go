package wal

import (
	"testing"

	"github.com/streamworks/streamworks/internal/testutil/leakcheck"
)

// TestMain gates the package on goroutine hygiene: a Manager's appender
// runs from its first append to Close, so a goroutine outliving the tests
// is a manager Close failed to stop.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
