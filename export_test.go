package streamworks

import "github.com/streamworks/streamworks/internal/core"

// WithWALFS exposes the unexported filesystem-seam option to the external
// test package, so fault-injection tests can substitute
// internal/testutil/faultfs for the real disk.
var WithWALFS = withWALFS

// Deliver hands ev to s as its engine does, to time one delivery alone.
func Deliver(s *Sharded, ev core.MatchEvent) { s.deliver(ev) }

// Exclusive runs fn under the lock every delivery takes, as a recovered
// backlog's delivery does.
func Exclusive(s *Sharded, fn func()) {
	s.delivering.Lock()
	defer s.delivering.Unlock()
	fn()
}
