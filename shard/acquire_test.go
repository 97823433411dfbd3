package shard

// The writer lock's waiting rule (acquire): a waiter behind a held shard
// yields its P between tries for up to lockYieldNanos and only then sleeps
// on the mutex. Each test counts — parks through Stats.LockParks, contended
// acquires through Metrics.LockWait — and none asserts on a clock. Not
// build-tagged: race builds take the lock through the same acquire.

import (
	"runtime"
	"testing"
	"time"
)

// contend has a second goroutine take and release s's writer window while
// the caller holds it: the caller starts the waiter, runs hold, lets go
// and joins the waiter.
func contend(s *shardState, hold func()) {
	s.lockShard()
	done := make(chan struct{})
	go func() {
		s.lockShard()
		s.unlockShard()
		close(done)
	}()
	hold()
	s.unlockShard()
	<-done
}

// TestAcquireFollowsAShortHoldWithoutParking: behind holds a fifth of the
// bound, the waiter yields until each is over and never sleeps. A machine
// that stalls the process for the rest of the bound can make it park now
// and then, so most attempts, not all, must end unparked; a waiter that
// parked after a few microseconds, or at once on one P, parks on every one.
func TestAcquireFollowsAShortHoldWithoutParking(t *testing.T) {
	const hold, attempts = 2 * time.Millisecond, 6
	if hold >= lockYieldNanos {
		t.Fatalf("a %v hold is not short of the %d ns bound", hold, lockYieldNanos)
	}
	e := testEngine(t, 1, 64)
	for range attempts {
		contend(&e.shards[0], func() { time.Sleep(hold) })
	}
	if parks := e.Stats().LockParks; parks > attempts/2 {
		t.Fatalf("%d of %d waiters behind a %v hold slept on the mutex", parks, attempts, hold)
	}
}

// TestAcquireParksBehindALongHold: the holder sleeps until the waiter has
// given up yielding, so a waiter that never parked would keep it waiting.
// The waiter parks exactly once and still gets the lock, and its wait is
// one observation of LockWait.
func TestAcquireParksBehindALongHold(t *testing.T) {
	e := testEngine(t, 1, 64)
	m := NewMetrics(1)
	e.SetMetrics(m)
	contend(&e.shards[0], func() {
		for e.lockParks.Value() == 0 {
			time.Sleep(time.Millisecond)
		}
	})
	if got := e.Stats().LockParks; got != 1 {
		t.Fatalf("Stats.LockParks = %d, want 1", got)
	}
	if got := m.LockWait.Snapshot().Count; got != 1 {
		t.Fatalf("LockWait holds %d waits, want the one contended acquire", got)
	}
}

// TestAcquireStopsWatchingAtItsBound: the bound holds when the holder stays
// runnable too — on the only P, where holder and waiter take turns, and
// beside it on a P of its own. The holder yields until the waiter parks.
func TestAcquireStopsWatchingAtItsBound(t *testing.T) {
	e := testEngine(t, 1, 64)
	contend(&e.shards[0], func() {
		for e.lockParks.Value() == 0 {
			runtime.Gosched()
		}
	})
	if got := e.Stats().LockParks; got != 1 {
		t.Fatalf("Stats.LockParks = %d, want 1", got)
	}
}

// TestAcquireOnOnePYieldsToARunnableHolder: with one P the waiter runs at
// the holder's first yield and finds the lock held (so every round is one
// contended acquire), then hands the P back with its own yields until the
// holder lets go. Every round completes, and the waiter does not sleep; a
// process stall past the bound may park it now and then, so half the
// rounds may.
func TestAcquireOnOnePYieldsToARunnableHolder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := testEngine(t, 1, 64)
	m := NewMetrics(1)
	e.SetMetrics(m)
	const rounds = 20
	for range rounds {
		contend(&e.shards[0], func() {
			for range 100 {
				runtime.Gosched()
			}
		})
	}
	if got := m.LockWait.Snapshot().Count; got != rounds {
		t.Fatalf("LockWait holds %d waits over %d rounds: the waiter did not meet the held lock each round", got, rounds)
	}
	if parks := e.Stats().LockParks; parks > rounds/2 {
		t.Fatalf("%d of %d waiters slept behind a holder that shared their P", parks, rounds)
	}
}
