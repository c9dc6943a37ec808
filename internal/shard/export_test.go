package shard

// Running reports, in shard order, whether each shard's worker still has
// its goroutine and mailbox.
func Running(s *ShardedEngine) []bool {
	running := make([]bool, len(s.workers))
	for i, w := range s.workers {
		running[i] = w.in != nil
	}
	return running
}
