package shard_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/obs"
	"repro/shard"
	"repro/table"
)

func metricsConfig(shards, capacity int, growAt float64) shard.Config {
	return shard.Config{
		Shards: shards, Capacity: capacity, GrowAt: growAt, Seed: 99,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			return table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
		},
	}
}

func TestMetricsMigrationChunks(t *testing.T) {
	e := shard.MustNew(metricsConfig(2, 256, 0.8))
	m := shard.NewMetrics(e.Shards())
	e.SetMetrics(m)
	// Grow well past the initial capacity: several migrations run, each
	// ticked forward chunk by chunk by the inserting mutations.
	for k := uint64(1); k <= 4096; k++ {
		if _, err := tryPut(e, k, k); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.MigrationsStarted == 0 {
		t.Fatal("no migration started; the fixture must force growth")
	}
	if st.MigrationChunks == 0 {
		t.Fatal("Stats.MigrationChunks stayed zero across a migration")
	}
	if st.MigrationNanos == 0 {
		t.Fatal("Stats.MigrationNanos stayed zero across a migration")
	}
	if snap := m.MigrationChunk.Snapshot(); uint64(snap.Count) != st.MigrationChunks {
		t.Fatalf("MigrationChunk histogram count %d != Stats.MigrationChunks %d", snap.Count, st.MigrationChunks)
	}
}

func TestMetricsScalarSampling(t *testing.T) {
	e := shard.MustNew(metricsConfig(1, 1<<12, 0.85))
	m := shard.NewMetrics(1)
	e.SetMetrics(m)
	// Keys 0, 64, 128, ... are exactly the sampled ones (low six bits
	// zero), so every op below lands one histogram sample.
	const n = 100
	for i := uint64(0); i < n; i++ {
		k := i << 6
		if _, err := tryPut(e, k, i); err != nil {
			t.Fatal(err)
		}
		e.Get(k)
		if _, _, err := getOrPut(e, k, i); err != nil {
			t.Fatal(err)
		}
		if _, err := upsert(e, k, func(old uint64, exists bool) uint64 { return old + 1 }); err != nil {
			t.Fatal(err)
		}
		e.Delete(k)
	}
	for name, h := range map[string]int{
		"Get":      m.Get.Snapshot().Count,
		"Put":      m.Put.Snapshot().Count,
		"GetOrPut": m.GetOrPut.Snapshot().Count,
		"Upsert":   m.Upsert.Snapshot().Count,
		"Delete":   m.Delete.Snapshot().Count,
	} {
		if h != n {
			t.Errorf("%s histogram count = %d, want %d (every key sampled)", name, h, n)
		}
	}
	// Unsampled keys record nothing.
	before := m.Get.Snapshot().Count
	e.Get(3) // 3&63 != 0
	if after := m.Get.Snapshot().Count; after != before {
		t.Fatalf("unsampled key recorded a sample (%d -> %d)", before, after)
	}
}

func TestMetricsBatchPerCall(t *testing.T) {
	e := shard.MustNew(metricsConfig(4, 1<<12, 0.85))
	m := shard.NewMetrics(e.Shards())
	e.SetMetrics(m)
	keys := make([]uint64, 512)
	vals := make([]uint64, 512)
	out := make([]uint64, 512)
	ok := make([]bool, 512)
	for i := range keys {
		keys[i] = uint64(i) * 7
		vals[i] = uint64(i)
	}
	const calls = 3
	for c := 0; c < calls; c++ {
		if _, err := putBatch(e, keys, vals); err != nil {
			t.Fatal(err)
		}
		e.GetBatch(keys, out, ok)
		if _, err := getOrPutBatch(e, keys, vals, out, ok); err != nil {
			t.Fatal(err)
		}
		if _, err := upsertBatch(e, keys, func(lane int, old uint64, exists bool) uint64 { return old + 1 }); err != nil {
			t.Fatal(err)
		}
	}
	for name, h := range map[string]int{
		"GetBatch":      m.GetBatch.Snapshot().Count,
		"PutBatch":      m.PutBatch.Snapshot().Count,
		"GetOrPutBatch": m.GetOrPutBatch.Snapshot().Count,
		"UpsertBatch":   m.UpsertBatch.Snapshot().Count,
	} {
		if h != calls {
			t.Errorf("%s histogram count = %d, want %d (one sample per call)", name, h, calls)
		}
	}
}

func TestMetricsReadPathCounters(t *testing.T) {
	e := shard.MustNew(metricsConfig(2, 256, 0.8))
	e.SetMetrics(shard.NewMetrics(e.Shards()))
	// Grow past the threshold: every migration republishes the view
	// twice (freeze, promote).
	keys := make([]uint64, 2048)
	vals := make([]uint64, 2048)
	out := make([]uint64, 2048)
	ok := make([]bool, 2048)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		vals[i] = uint64(i)
	}
	if _, err := putBatch(e, keys, vals); err != nil {
		t.Fatal(err)
	}
	e.GetBatch(keys, out, ok)
	st := e.Stats()
	if st.MigrationsStarted == 0 {
		t.Fatal("fixture never migrated; ViewPublishes has nothing to count")
	}
	// Single-goroutine traffic never overlaps a writer window: the
	// retry/fallback/park counters must hold at zero.
	if st.ReadRetries != 0 || st.ReadFallbacks != 0 || st.LockParks != 0 {
		t.Fatalf("Stats counted retries=%d fallbacks=%d parks=%d uncontended", st.ReadRetries, st.ReadFallbacks, st.LockParks)
	}
	seriesEqualStats(t, e, st)
}

// TestMetricsEngineSeriesEqualStats: the four read-path and publication
// series are the counters Stats reads, so two writers growing a four-shard
// engine through several migrations, with Metrics attached only midway,
// leave each series equal to its Stats field.
func TestMetricsEngineSeriesEqualStats(t *testing.T) {
	e := shard.MustNew(metricsConfig(4, 1<<10, 0.8))
	const writers, batches, batch = 2, 32, 256
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := range uint64(writers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]uint64, batch)
			out := make([]uint64, batch)
			ok := make([]bool, batch)
			for b := range uint64(batches) {
				if w == 0 && b == batches/2 {
					e.SetMetrics(shard.NewMetrics(e.Shards()))
				}
				for i := range keys {
					keys[i] = ((b*batch+uint64(i))*writers+w)*0x9e3779b97f4a7c15 + 1
				}
				if _, err := putBatch(e, keys, keys); err != nil {
					errs <- err
					return
				}
				e.GetBatch(keys, out, ok)
				e.Delete(keys[0])
				e.Get(keys[1])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.MigrationsDone < 3*uint64(e.Shards()) {
		t.Fatalf("%d migrations done; the fixture must grow every shard several times", st.MigrationsDone)
	}
	seriesEqualStats(t, e, st)
}

// seriesEqualStats checks that the exposition carries the four read-path
// and publication series under their conventional names, each equal to
// its field of st, birth epochs included.
func seriesEqualStats(t *testing.T, e *shard.Engine, st shard.Stats) {
	t.Helper()
	got := series(e, nil)
	for name, want := range map[string]uint64{
		"shard_read_retries_total":   st.ReadRetries,
		"shard_read_fallbacks_total": st.ReadFallbacks,
		"shard_lock_parks_total":     st.LockParks,
		"shard_view_republish_total": st.ViewPublishes,
	} {
		if got[name] != fmt.Sprint(want) {
			t.Errorf("exposition has %s = %q, Stats %d", name, got[name], want)
		}
	}
}

// series renders the engine's counters, and m's series unless m is nil,
// as the exposition does: each sample's name mapped to its value.
func series(e *shard.Engine, m *shard.Metrics) map[string]string {
	r := obs.NewRegistry()
	e.Register(r, "")
	if m != nil {
		m.Register(r, "")
	}
	var buf strings.Builder
	r.WriteText(&buf)
	out := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			out[name] = val
		}
	}
	return out
}

// TestMetricsLockParks: a writer that finds its shard's lock held for
// longer than it yields for sleeps on the mutex, and that is counted once —
// in Stats and in the exposition. Its wait is one
// LockWait observation: the uncontended writes before it record none.
func TestMetricsLockParks(t *testing.T) {
	e := shard.MustNew(metricsConfig(1, 1<<10, 0.85))
	m := shard.NewMetrics(e.Shards())
	e.SetMetrics(m)
	if _, err := tryPut(e, 1, 10); err != nil {
		t.Fatal(err)
	}
	if got := m.LockWait.Snapshot().Count; got != 0 {
		t.Fatalf("LockWait holds %d waits after an uncontended Put", got)
	}
	// RangeShard holds the shard's lock while it visits the entry: the Put
	// started from inside the visit cannot get it, and the visit returns
	// only once the Put has given up yielding.
	put := make(chan error)
	e.RangeShard(0, func(_, _ uint64) bool {
		go func() {
			_, err := tryPut(e, 2, 20)
			put <- err
		}()
		for series(e, nil)["shard_lock_parks_total"] == "0" {
			time.Sleep(time.Millisecond)
		}
		return false
	})
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().LockParks; got != 1 {
		t.Fatalf("Stats.LockParks = %d, want 1", got)
	}
	if got := m.LockWait.Snapshot().Count; got != 1 {
		t.Fatalf("LockWait holds %d waits, want the one contended Put", got)
	}
	got := series(e, m)
	for name, want := range map[string]string{"shard_lock_parks_total": "1", "shard_lock_wait_nanos_count": "1"} {
		if got[name] != want {
			t.Errorf("exposition has %s = %q, want %s", name, got[name], want)
		}
	}
}

// TestMetricsLockWait: with one P, a Put started while RangeShard holds the
// lock runs at the visit's first yield and finds the lock held, so each
// round is exactly one contended acquire and one LockWait observation.
// The exposition carries the histogram's count.
func TestMetricsLockWait(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := shard.MustNew(metricsConfig(1, 1<<10, 0.85))
	m := shard.NewMetrics(e.Shards())
	e.SetMetrics(m)
	if _, err := tryPut(e, 1, 10); err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	put := make(chan error)
	for i := range uint64(rounds) {
		e.RangeShard(0, func(_, _ uint64) bool {
			go func() {
				_, err := tryPut(e, 2+i, 20)
				put <- err
			}()
			for range 100 {
				runtime.Gosched()
			}
			return false
		})
		if err := <-put; err != nil {
			t.Fatal(err)
		}
	}
	if got := m.LockWait.Snapshot().Count; got != rounds {
		t.Fatalf("LockWait holds %d waits, want one for each of %d contended Puts", got, rounds)
	}
	r := obs.NewRegistry()
	m.Register(r, "")
	var buf strings.Builder
	r.WriteText(&buf)
	if line := fmt.Sprintf("shard_lock_wait_nanos_count %d", rounds); !strings.Contains(buf.String(), line) {
		t.Errorf("exposition does not carry %q:\n%s", line, buf.String())
	}
}

func TestSetMetricsDetach(t *testing.T) {
	e := shard.MustNew(metricsConfig(1, 1<<10, 0.85))
	m := shard.NewMetrics(1)
	e.SetMetrics(m)
	e.Get(0) // sampled
	if m.Get.Snapshot().Count != 1 {
		t.Fatal("attached metrics did not record")
	}
	e.SetMetrics(nil)
	e.Get(0)
	if m.Get.Snapshot().Count != 1 {
		t.Fatal("detached metrics kept recording")
	}
}
