package shard

// WatchThenLock is BenchmarkHolderBesideWaiter's watching waiter: it takes
// shard 0's writer lock by watching a held lock's sequence word for at most
// a batched read's windowWatchNanos before it parks, and lets go at once.
func WatchThenLock(e *Engine) {
	s := &e.shards[0]
	if !s.mu.TryLock() {
		for end := watchEnd(windowWatchNanos); ; {
			if !s.awaitEven(end) {
				s.mu.Lock()
				break
			}
			if s.mu.TryLock() {
				break
			}
		}
	}
	s.mu.Unlock()
}

// AcquireThenUnlock is BenchmarkHolderBesideWaiter's yielding waiter: it
// takes shard 0's writer lock through acquire and lets go at once.
func AcquireThenUnlock(e *Engine) {
	s := &e.shards[0]
	s.acquire()
	s.mu.Unlock()
}
