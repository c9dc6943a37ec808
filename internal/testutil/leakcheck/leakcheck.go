// Package leakcheck is an offline stand-in for go.uber.org/goleak (this
// build environment cannot fetch modules): a TestMain hook that fails the
// package when goroutines outlive the tests. StreamWorks is a system of
// shard worker, server, WAL and client goroutines whose lifecycles are part
// of the public contract ("Close drains and stops everything"); a test that
// passes while leaking a worker is a test that hides a shutdown bug, so the
// goroutine-heavy packages (the public API, core, shard, server) gate on
// this check.
//
// Usage, in one file per test package:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Known-benign runtime, testing and os/signal goroutines are filtered; the
// checker retries for a grace period so goroutines that are mid-exit when
// the last test returns do not flake the build.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benign are stack substrings of goroutines the Go runtime and the testing
// framework keep alive by design.
var benign = []string{
	"testing.Main(",
	"testing.(*M).",
	"testing.tRunner(",
	"runtime.gcBgMarkWorker",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.ensureSigM",
	"runtime.ReadTrace",
	"os/signal.signal_recv",
	"os/signal.loop",
	"created by runtime",
	"leakcheck.check",
	// The HTTP transport parks idle connections with keep-alive; tests
	// that exercise the client/server stack close them explicitly, but a
	// connection already unwinding when the test ends is indistinguishable
	// from one mid-read, so both readLoop and writeLoop get the grace
	// treatment below and are only reported if they survive the full
	// retry window.
}

// grace is the retry window the checker gives goroutines to finish
// unwinding.
const grace = 5 * time.Second

// Main runs the package's tests and then fails the binary (exit 1) if
// non-benign goroutines are still alive after the grace window.
func Main(m *testing.M) {
	code := m.Run()
	if code != 0 {
		os.Exit(code)
	}
	if leaked := check(); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) leaked by this test package:\n\n%s\n",
			len(leaked), strings.Join(leaked, "\n\n"))
		os.Exit(1)
	}
	os.Exit(0)
}

// check snapshots the stacks repeatedly until the leak set is empty or the
// grace window ends, backing off between snapshots: goroutines that are
// merely slow to unwind (deferred closes, channel teardown, HTTP transport
// loops noticing a closed connection) disappear across retries, real leaks
// do not.
func check() []string {
	deadline := time.Now().Add(grace)
	wait := time.Millisecond
	for {
		leaked := snapshot()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(wait)
		if wait < 200*time.Millisecond {
			wait *= 2
		}
	}
}

// snapshot returns the stacks of currently-live non-benign goroutines.
func snapshot() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" || isBenign(g) {
			continue
		}
		leaked = append(leaked, strings.TrimSpace(g))
	}
	return leaked
}

func isBenign(stack string) bool {
	// The snapshotting goroutine itself.
	if strings.Contains(stack, "runtime.Stack(") {
		return true
	}
	for _, b := range benign {
		if strings.Contains(stack, b) {
			return true
		}
	}
	return false
}
