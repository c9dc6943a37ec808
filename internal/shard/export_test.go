package shard

import "github.com/streamworks/streamworks/internal/core"

// StartTapped starts s like Start, except that tap reads the merge channel
// in the merger's place: it is handed every match event any shard sent, on
// one goroutine, and the sink is never called. The returned stop drains
// and stops the workers like Close and returns once tap has seen the last
// event.
func StartTapped(s *ShardedEngine, tap func(core.MatchEvent)) (stop func()) {
	s.out = make(chan shardEvent, 64*len(s.workers))
	for _, w := range s.workers {
		w.start(s.out)
	}
	s.running = true
	done := make(chan struct{})
	go func() {
		defer close(done)
		for se := range s.out {
			if se.ev.Match != nil {
				tap(se.ev)
			}
		}
	}()
	return func() {
		for _, w := range s.workers {
			w.stop()
		}
		for _, w := range s.workers {
			w.wait()
		}
		close(s.out)
		<-done
		s.running, s.closed = false, true
	}
}
