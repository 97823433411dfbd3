package shard

// The two watch bounds, for BenchmarkHolderBesideWaiter.
const (
	ParkRoundTripNanos = parkRoundTripNanos
	WindowWatchNanos   = windowWatchNanos
)

// WatchThenLock is BenchmarkHolderBesideWaiter's waiter: it takes shard 0's
// writer lock as acquire does, but watching a held lock for at most nanos
// before it parks, and lets go at once.
func WatchThenLock(e *Engine, nanos int64) {
	s := &e.shards[0]
	if !s.mu.TryLock() {
		for end := watchEnd(nanos); ; {
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
