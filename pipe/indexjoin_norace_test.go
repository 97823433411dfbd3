//go:build !race

package pipe_test

// Not a race-build test: there every read takes its shard's lock.

import (
	"testing"

	"repro/pipe"
)

// TestIndexJoinUnderHeldShardLocks runs an indexed join while the test
// holds the writer lock of every shard of the source handle (RangeShard
// holds its shard's for as long as the callback runs): the join's reads
// are wait-free and it takes none of them. A plan that scanned the handle
// would stop at the first.
func TestIndexJoinUnderHeldShardLocks(t *testing.T) {
	h, gone := midResizeHandle(t)
	keys, _ := handleEntries(h)
	probe := probeSide(keys, gone)
	want := 0
	for i := range keys {
		want += i % 4 // probeSide's repeats
	}
	eng := h.Engine()
	var underLocks func(shard int)
	underLocks = func(shard int) {
		if shard < eng.Shards() {
			eng.RangeShard(shard, func(_, _ uint64) bool {
				underLocks(shard + 1)
				return false
			})
			return
		}
		n, err := pipe.HashJoin(pipe.FromHandle(h), pipe.FromRelation(probe), pipe.JoinConfig{}).
			Count(pipe.Config{Workers: 2, MorselSize: 512})
		if err != nil || n != want {
			t.Errorf("indexed join under every shard lock: %d matches, %v, want %d", n, err, want)
		}
	}
	underLocks(0)
	if st := h.EngineStats(); st.LockParks != 0 || st.ReadFallbacks != 0 {
		t.Errorf("%d lock parks, %d read fallbacks on a handle nobody wrote to", st.LockParks, st.ReadFallbacks)
	}
}
