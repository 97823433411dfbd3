package shard_test

import (
	"testing"
	"time"

	"repro/internal/prng"
	"repro/table"
)

// churnedHandle opens a four-shard handle of scheme s with capacity slots,
// fills half of them, then deletes a random live key and inserts a fresh
// one rounds times, and drains any migration left in flight. It returns
// the handle, its final live keys and a generator of keys never inserted.
func churnedHandle(tb testing.TB, s table.Scheme, capacity, rounds int) (*table.Handle, []uint64, *prng.SplitMix64) {
	tb.Helper()
	h := openChurn(tb, s, capacity)
	keys := prng.NewSplitMix64(7) // distinct outputs: every key drawn is fresh
	pick := prng.NewXoshiro256(7)
	live := make([]uint64, capacity/2)
	for i := range live {
		live[i] = keys.Next()
		if _, err := h.Put(live[i], uint64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		i := pick.Intn(len(live))
		if !h.Delete(live[i]) {
			tb.Fatalf("round %d: live key %#x not deleted", r, live[i])
		}
		live[i] = keys.Next()
		if _, err := h.Put(live[i], uint64(r)); err != nil {
			tb.Fatal(err)
		}
	}
	if !h.Engine().Drain() {
		tb.Fatal("Drain left a shard migrating")
	}
	return h, live, keys
}

func openChurn(tb testing.TB, s table.Scheme, capacity int) *table.Handle {
	tb.Helper()
	h, err := table.Open(table.WithScheme(s), table.WithPartitions(4), table.WithCapacity(capacity), table.WithSeed(7))
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestChurnedQPShardShedsTombstones: a sharded QP handle held at half load
// while it deletes and inserts four times per slot counts its tombstones
// toward the growth threshold, so a shard they push there migrates to a
// tombstone-free table of the same capacity. Afterwards live entries plus
// tombstones sit below the threshold, capacity has not doubled, and at
// least one migration ran.
func TestChurnedQPShardShedsTombstones(t *testing.T) {
	const capacity = 1 << 14
	h, _, _ := churnedHandle(t, table.SchemeQP, capacity, 4*capacity)
	st := h.Stats()
	if float64(st.Len+st.Tombstones) >= table.DefaultMaxLoadFactor*capacity {
		t.Fatalf("%d live + %d tombstones of %d slots: at or past the growth threshold", st.Len, st.Tombstones, capacity)
	}
	if h.Capacity() != capacity {
		t.Fatalf("capacity %d at a steady half load, want %d", h.Capacity(), capacity)
	}
	if n := h.EngineStats().MigrationsStarted; n == 0 {
		t.Fatal("no migration ran: tombstones never counted toward the threshold")
	}
}

// BenchmarkChurnedMiss times lookups of absent keys, in ns/key, on a
// four-shard handle after 2^19 delete-a-live-key, insert-a-fresh-one
// rounds at half of 2^18 slots (churned), and on a handle built from the
// same final keys (fresh). Deletes that leave tombstones, or a growth
// trigger that ignores them, show as churned misses costing more than
// fresh ones.
func BenchmarkChurnedMiss(b *testing.B) {
	const capacity = 1 << 18
	for _, s := range []table.Scheme{table.SchemeLP, table.SchemeQP, table.SchemeRH} {
		churned, live, keys := churnedHandle(b, s, capacity, 2*capacity)
		fresh := openChurn(b, s, capacity)
		for i, k := range live {
			if _, err := fresh.Put(k, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		absent := make([]uint64, capacity)
		for i := range absent {
			absent[i] = keys.Next()
		}
		b.Run(string(s), func(b *testing.B) {
			vals, ok := make([]uint64, 1024), make([]bool, 1024)
			miss := func(h *table.Handle) time.Duration {
				start := time.Now()
				for lo := 0; lo < len(absent); lo += len(vals) {
					if h.GetBatch(absent[lo:lo+len(vals)], vals, ok) != 0 {
						b.Fatal("an absent key was found")
					}
				}
				return time.Since(start)
			}
			var c, f time.Duration
			for i := 0; i < b.N; i++ {
				c += miss(churned)
				f += miss(fresh)
			}
			n := float64(b.N) * float64(len(absent))
			b.ReportMetric(float64(c.Nanoseconds())/n, "churned-ns/key")
			b.ReportMetric(float64(f.Nanoseconds())/n, "fresh-ns/key")
		})
	}
}
