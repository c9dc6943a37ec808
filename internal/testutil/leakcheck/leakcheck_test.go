package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// TestSnapshotSeesLeak parks a goroutine and verifies the snapshot reports
// it — guarding against an over-broad benign filter that would blind the
// whole checker (every stack matching some substring).
func TestSnapshotSeesLeak(t *testing.T) {
	block := make(chan struct{})
	go parkForLeakTest(block)
	time.Sleep(10 * time.Millisecond)

	leaked := snapshot()
	found := false
	for _, g := range leaked {
		if strings.Contains(g, "parkForLeakTest") {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot did not report the parked goroutine; got %d stacks:\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	}

	close(block)
	if got := check(); len(got) != 0 {
		t.Fatalf("leak persisted after release: %v", got)
	}
}

//go:noinline
func parkForLeakTest(block chan struct{}) { <-block }
