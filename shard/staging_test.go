package shard_test

// The pooled batch staging is owned by one call at a time: concurrent
// batch callers on one engine never see each other's lanes. Run with
// -race this is also the detector's view of the pool.

import (
	"sync"
	"testing"

	"repro/table"
)

func TestConcurrentBatchesNeverShareStaging(t *testing.T) {
	e := newEngine(t, table.SchemeRH, 4, 1<<14, 0.85, 21)
	const (
		callers = 2
		width   = 1500 // keys per caller: a batch spans all four shards
		rounds  = 200
	)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Caller c owns keys base+1..base+width and stores, under key
			// k, a value no other caller's keys can produce.
			base := uint64(c) * 1_000_000
			mine := func(k, round uint64) uint64 { return k<<16 | round }
			keys := make([]uint64, width)
			vals := make([]uint64, width)
			out := make([]uint64, width)
			ok := make([]bool, width)
			for i := range keys {
				keys[i] = base + uint64(i) + 1
			}
			for round := uint64(1); round <= rounds; round++ {
				for i, k := range keys {
					vals[i] = mine(k, round)
				}
				if _, err := putBatch(e, keys, vals); err != nil {
					t.Error(err)
					return
				}
				if hits := e.GetBatch(keys, out, ok); hits != width {
					t.Errorf("caller %d round %d: GetBatch hit %d of %d", c, round, hits, width)
					return
				}
				for i, k := range keys {
					if !ok[i] || out[i] != mine(k, round) {
						t.Errorf("caller %d round %d: GetBatch lane %d = (%#x,%v), want %#x", c, round, i, out[i], ok[i], mine(k, round))
						return
					}
				}
				// Every key exists: GetOrPutBatch must load the caller's
				// own value into the caller's own lane, never insert.
				clear(vals)
				if ins, err := getOrPutBatch(e, keys, vals, out, ok); err != nil || ins != 0 {
					t.Errorf("caller %d round %d: GetOrPutBatch inserted %d, err %v", c, round, ins, err)
					return
				}
				for i, k := range keys {
					if !ok[i] || out[i] != mine(k, round) {
						t.Errorf("caller %d round %d: GetOrPutBatch lane %d = (%#x,%v), want %#x", c, round, i, out[i], ok[i], mine(k, round))
						return
					}
				}
				// UpsertBatch hands fn the caller's lane numbers.
				bad := -1
				_, err := upsertBatch(e, keys, func(lane int, old uint64, exists bool) uint64 {
					if !exists || old != mine(keys[lane], round) {
						bad = lane
					}
					return old
				})
				if err != nil || bad >= 0 {
					t.Errorf("caller %d round %d: UpsertBatch lane %d saw another lane's value (err %v)", c, round, bad, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
