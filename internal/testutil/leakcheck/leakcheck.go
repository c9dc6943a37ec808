// Package leakcheck is an offline stand-in for go.uber.org/goleak (this
// build environment cannot fetch modules): a TestMain hook that fails the
// package when goroutines outlive the tests. StreamWorks is a system of
// worker, merger, hub and delivery goroutines whose lifecycles are part of
// the public contract ("Close drains and stops everything"); a test that
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
// the last test returns do not flake the build. Extra expected stacks (for
// a package that intentionally parks a daemon) can be allowed by substring
// with Ignore.
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
	// retry window AND the caller did not opt out.
}

// Option adjusts the checker.
type Option func(*config)

type config struct {
	ignores []string
	grace   time.Duration
}

// Ignore allows goroutines whose stack contains sub (use for daemons a
// package parks on purpose; say why at the call site).
func Ignore(sub string) Option {
	return func(c *config) { c.ignores = append(c.ignores, sub) }
}

// Grace overrides the retry window (default 5s) the checker gives
// goroutines to finish unwinding.
func Grace(d time.Duration) Option {
	return func(c *config) { c.grace = d }
}

// Main runs the package's tests and then fails the binary (exit 1) if
// non-benign goroutines are still alive after the grace window.
func Main(m *testing.M, opts ...Option) {
	code := m.Run()
	if code != 0 {
		os.Exit(code)
	}
	cfg := config{grace: 5 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if leaked := check(cfg); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) leaked by this test package:\n\n%s\n",
			len(leaked), strings.Join(leaked, "\n\n"))
		os.Exit(1)
	}
	os.Exit(0)
}

// Check is the non-TestMain form: it fails t if goroutines leak. Intended
// for use as t.Cleanup(func() { leakcheck.Check(t) }) around an individual
// leak-prone test.
func Check(t *testing.T, opts ...Option) {
	t.Helper()
	cfg := config{grace: 5 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if leaked := check(cfg); len(leaked) > 0 {
		t.Errorf("leakcheck: %d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// check snapshots the stacks repeatedly until the leak set is empty or the
// grace window ends, backing off between snapshots: goroutines that are
// merely slow to unwind (deferred closes, channel teardown, HTTP transport
// loops noticing a closed connection) disappear across retries, real leaks
// do not.
func check(cfg config) []string {
	deadline := time.Now().Add(cfg.grace)
	wait := time.Millisecond
	for {
		leaked := snapshot(cfg.ignores)
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
func snapshot(ignores []string) []string {
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
		if g == "" || isBenign(g, ignores) {
			continue
		}
		leaked = append(leaked, strings.TrimSpace(g))
	}
	return leaked
}

func isBenign(stack string, ignores []string) bool {
	// The snapshotting goroutine itself.
	if strings.Contains(stack, "runtime.Stack(") {
		return true
	}
	for _, b := range benign {
		if strings.Contains(stack, b) {
			return true
		}
	}
	for _, ig := range ignores {
		if strings.Contains(stack, ig) {
			return true
		}
	}
	return false
}
