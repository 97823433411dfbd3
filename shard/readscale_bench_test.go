package shard_test

// BenchmarkReadScale measures what the wait-free read path buys: Get and
// GetBatch ns/key at 1, 2, 4 and 8 goroutines, on the real Engine
// (seqlock + epoch-published views) and on an in-bench replica of the
// engine's previous concurrency layer — per-shard sync.RWMutex around
// the same Robin Hood tables, same router, and a freshly allocated
// shard-major staging per batch call, as the pre-seqlock code had.
// Three workloads:
//
//   - get: scalar Get only, the per-key lock cost at its barest. The
//     RWMutex baseline pays two lock-word RMWs per key — a cross-core
//     coherence miss per key once readers spread over cores; the
//     seqlock path pays two loads of a word only writers dirty.
//   - read: GetBatch only; locking/validation amortizes per shard range.
//   - mixed: 95% GetBatch / 5% PutBatch (updates), the read-mostly
//     regime the seqlock targets; writer windows force occasional
//     retries, which the read-retry counters in Stats make visible.
//
// On the 4-vCPU CI runners the separation shows by 4 goroutines; a
// single-core machine shows parity (goroutines time-slice one core, so
// there is no coherence traffic for the seqlock to win back). The
// tracked numbers for this question are the benchmark ladder's
// shard.get_ns_per_row and shard.scale_w2 (benchmark/); this benchmark
// reports through ReportMetric only.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hashfn"
	"repro/shard"
	"repro/table"
)

const (
	readScaleKeys  = 1 << 16
	readScaleBatch = 512
	readScaleShard = 8
	// mixedWritePeriod: one PutBatch per this many batches ≈ 5% writes.
	mixedWritePeriod = 20
)

// benchOps is the engine-agnostic surface the workloads drive.
type benchOps struct {
	get      func(k uint64) (uint64, bool)
	getBatch func(ks, vs []uint64, ok []bool)
	putBatch func(ks, vs []uint64)
}

// rwEngine replicates the engine's pre-seqlock read path: per-shard
// RWMutex, reads under RLock, the same router, and a freshly allocated
// staging per batch call (concurrent callers must not share one). It
// exists only as the benchmark baseline.
type rwEngine struct {
	shards []rwShard
	router hashfn.Function
	shift  uint
}

type rwShard struct {
	mu  sync.RWMutex
	tab shard.Table
}

func newRWEngine(b *testing.B, shards, capacity int, seed uint64) *rwEngine {
	b.Helper()
	e := &rwEngine{
		shards: make([]rwShard, shards),
		router: hashfn.MultFamily{}.New(seed ^ 0x9a77_e4b0_0f00_d001),
	}
	shift := uint(64)
	for p := shards; p > 1; p >>= 1 {
		shift--
	}
	e.shift = shift
	for i := range e.shards {
		t, err := table.New(table.SchemeRH, table.Config{
			InitialCapacity: capacity / shards,
			MaxLoadFactor:   0,
			Seed:            seed + uint64(i)*0x9e3779b97f4a7c15,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.shards[i].tab = t
	}
	return e
}

func (e *rwEngine) get(k uint64) (uint64, bool) {
	s := &e.shards[e.router.Hash(k)>>e.shift]
	s.mu.RLock()
	v, ok := s.tab.Get(k)
	s.mu.RUnlock()
	return v, ok
}

// rwStaging is one batch call's shard-major copy of its columns: shard
// j's keys are keys[starts[j]:starts[j+1]], and staged slot i came from
// lane orig[i].
type rwStaging struct {
	keys, vals []uint64
	ok         []bool
	orig       []int
	starts     []int
}

// stage bulk-hashes keys through the router and regroups them (and vals,
// when non-nil) shard-major in one stable counting pass, like the engine.
func (e *rwEngine) stage(keys, vals []uint64) *rwStaging {
	n := len(keys)
	st := &rwStaging{
		keys: make([]uint64, n), vals: make([]uint64, n), ok: make([]bool, n),
		orig: make([]int, n), starts: make([]int, len(e.shards)+1),
	}
	hashes := make([]uint64, n)
	hashfn.HashBatch(e.router, keys, hashes)
	for _, h := range hashes {
		st.starts[h>>e.shift+1]++
	}
	for j := range e.shards {
		st.starts[j+1] += st.starts[j]
	}
	pos := append([]int(nil), st.starts[:len(e.shards)]...)
	for i, h := range hashes {
		at := pos[h>>e.shift]
		pos[h>>e.shift]++
		st.keys[at], st.orig[at] = keys[i], i
		if vals != nil {
			st.vals[at] = vals[i]
		}
	}
	return st
}

func (e *rwEngine) getBatch(keys, vals []uint64, ok []bool) {
	st := e.stage(keys, nil)
	for j := range e.shards {
		lo, hi := st.starts[j], st.starts[j+1]
		if lo == hi {
			continue
		}
		s := &e.shards[j]
		s.mu.RLock()
		for i := lo; i < hi; i++ {
			st.vals[i], st.ok[i] = s.tab.Get(st.keys[i])
		}
		s.mu.RUnlock()
	}
	for i, oi := range st.orig {
		vals[oi], ok[oi] = st.vals[i], st.ok[i]
	}
}

func (e *rwEngine) putBatch(keys, vals []uint64) {
	st := e.stage(keys, vals)
	for j := range e.shards {
		lo, hi := st.starts[j], st.starts[j+1]
		if lo == hi {
			continue
		}
		s := &e.shards[j]
		s.mu.Lock()
		for i := lo; i < hi; i++ {
			if _, err := tryPut(s.tab, st.keys[i], st.vals[i]); err != nil {
				panic(err)
			}
		}
		s.mu.Unlock()
	}
}

// readScaleWorker runs batches rounds of the workload, walking a
// goroutine-private window of the prefilled key space. One round is
// readScaleBatch keys whatever the workload shape (scalar or batched).
func readScaleWorker(w, batches int, keys []uint64, workload string, ops benchOps) {
	ks := make([]uint64, readScaleBatch)
	vs := make([]uint64, readScaleBatch)
	ok := make([]bool, readScaleBatch)
	pos := (w * 7919 * readScaleBatch) % len(keys)
	for i := 0; i < batches; i++ {
		for j := range ks {
			ks[j] = keys[(pos+j)%len(keys)]
		}
		pos = (pos + readScaleBatch) % len(keys)
		switch {
		case workload == "get":
			for _, k := range ks {
				if _, present := ops.get(k); !present {
					panic("prefilled key missing")
				}
			}
		case workload == "mixed" && i%mixedWritePeriod == mixedWritePeriod-1:
			for j, k := range ks {
				vs[j] = k ^ uint64(i)
			}
			ops.putBatch(ks, vs)
		default:
			ops.getBatch(ks, vs, ok)
		}
	}
}

func runReadScale(b *testing.B, g int, keys []uint64, workload string, ops benchOps) {
	per := b.N/g + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			readScaleWorker(w, per, keys, workload, ops)
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(per*g*readScaleBatch), "ns/key")
}

func BenchmarkReadScale(b *testing.B) {
	// Pre-sized well under the growth threshold: neither engine resizes
	// mid-benchmark, so the comparison is purely the read protocols.
	const capacity = readScaleKeys * 4
	keys := make([]uint64, readScaleKeys)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}

	seq := shard.MustNew(shard.Config{
		Shards:   readScaleShard,
		Capacity: capacity,
		GrowAt:   0.85,
		Seed:     1,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			return table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
		},
	})
	rw := newRWEngine(b, readScaleShard, capacity, 1)
	for _, k := range keys {
		if _, err := tryPut(seq, k, k); err != nil {
			b.Fatal(err)
		}
	}
	{
		vals := make([]uint64, len(keys))
		copy(vals, keys)
		rw.putBatch(keys, vals)
	}

	engines := []struct {
		name string
		ops  benchOps
	}{
		{"seqlock", benchOps{
			get:      seq.Get,
			getBatch: func(ks, vs []uint64, ok []bool) { seq.GetBatch(ks, vs, ok) },
			putBatch: func(ks, vs []uint64) {
				if _, err := putBatch(seq, ks, vs); err != nil {
					panic(err)
				}
			},
		}},
		{"rwmutex", benchOps{get: rw.get, getBatch: rw.getBatch, putBatch: rw.putBatch}},
	}

	for _, workload := range []string{"get", "read", "mixed"} {
		for _, g := range []int{1, 2, 4, 8} {
			for _, eng := range engines {
				b.Run(fmt.Sprintf("%s/%s/g%d", workload, eng.name, g), func(b *testing.B) {
					runReadScale(b, g, keys, workload, eng.ops)
				})
			}
		}
	}
}

// BenchmarkMigratingGetBatch measures a batched read of a shard mid-resize
// by how far the migration has got: GetBatch ns/key on one Robin Hood
// shard frozen at 0.7 load, with 0%, 50% and 95% of its entries moved into
// the successor, over keys present and keys absent. The frozen table
// answers a present key alone, at its 0.7 load throughout; an absent key
// is asked about in both tables, the successor filling towards 0.35 as the
// migration goes. Run with -benchtime 2000x or so; it reports ns/key
// through ReportMetric.
func BenchmarkMigratingGetBatch(b *testing.B) {
	const (
		slots = 1 << 19
		batch = 1024
		reads = 1 << 16 // keys per read column, drawn in random order
	)
	key := func(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }
	for _, progress := range []int{0, 50, 95} {
		e := shard.MustNew(shard.Config{
			Shards: 1, Capacity: slots, GrowAt: 0.7, Seed: 1,
			NewTable: func(capacity int, seed uint64) (shard.Table, error) {
				return table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
			},
		})
		n := 0
		for ; e.Stats().Migrating == 0; n++ {
			if _, err := tryPut(e, key(n), uint64(n)); err != nil {
				b.Fatal(err)
			}
		}
		// A delete of an absent key hosts one migration step and changes
		// nothing else.
		for moved := 0; moved < progress*n/100; moved += shard.DefaultMigrationChunk {
			e.Delete(key(n + reads))
		}
		if e.Stats().Migrating != 1 {
			b.Fatalf("the resize ended short of %d%%", progress)
		}
		present, absent := make([]uint64, reads), make([]uint64, reads)
		rnd := uint64(88172645463325252)
		for i := range present {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			present[i], absent[i] = key(int(rnd%uint64(n))), key(n+i)
		}
		vals, ok := make([]uint64, batch), make([]bool, batch)
		for _, c := range []struct {
			name string
			keys []uint64
			hits int
		}{{"present", present, batch}, {"absent", absent, 0}} {
			b.Run(fmt.Sprintf("progress=%d/%s", progress, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lo := i * batch % reads
					if hits := e.GetBatch(c.keys[lo:lo+batch], vals, ok); hits != c.hits {
						b.Fatalf("%d hits, want %d", hits, c.hits)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
			})
		}
	}
}

// BenchmarkTwoClients replays the benchmark's rw_resize step tape (a
// 1024-key PutBatch, two GetBatch of keys inserted earlier, one of absent
// keys, then 256 scalar Deletes of the step before) on fresh 4-shard
// engines that grow from 2^14 slots through about seven doublings. Each
// iteration replays both clients' tapes three ways — one client doing
// both, two clients sharing an engine, two clients on private engines —
// and reports ns/row of each plus shared/private: the time two clients
// take on one handle against two clients that share nothing. That is not
// the price of the lock alone, and 1.0 is not a ceiling the shared handle
// could reach: each private engine holds half the keys, in tables half the
// size (fewer cache and TLB misses) that grow one doubling less. At equal
// memory and without growth — one 2^21-slot engine against two 2^20-slot
// ones — the ratio still read 1.42–1.63 on a 2-vCPU VM. The shared run's
// read retries, fallbacks and lock parks per iteration ride along. Run
// with -cpu 2 (or more) and -benchtime 5x or so; the tracked number is the
// benchmark ladder's shard.scale_w2.
func BenchmarkTwoClients(b *testing.B) {
	const (
		perClient = 1 << 19
		step      = 1024
		victims   = 256
	)
	type tape struct {
		keys, vals, reads, absent, out []uint64
		ok                             []bool
	}
	tapes := make([]*tape, 2)
	for c := range tapes {
		t := &tape{
			keys: make([]uint64, perClient), vals: make([]uint64, perClient),
			reads: make([]uint64, 2*perClient), absent: make([]uint64, perClient),
			out: make([]uint64, step), ok: make([]bool, step),
		}
		rnd := uint64(c)*0x9e3779b97f4a7c15 + 88172645463325252
		for i := range t.keys {
			// Odd multiples stay distinct; the low bit tells clients (and
			// the absent keys, which set bit 1 instead) apart.
			t.keys[i] = (uint64(i)*4+uint64(c))*0x9e3779b97f4a7c15 | 1
			t.vals[i] = t.keys[i] * 3
			t.absent[i] = (uint64(i)*4 + 2 + uint64(c)) * 0x9e3779b97f4a7c15 &^ 1
		}
		for i := range t.reads {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			s := int(rnd>>33) % (i/(2*step) + 1) // a step up to the current one
			t.reads[i] = t.keys[s*step+victims+int(rnd&0xffff)%(step-victims)]
		}
		tapes[c] = t
	}
	open := func() *shard.Engine {
		return shard.MustNew(shard.Config{
			Shards: 4, Capacity: 1 << 14, GrowAt: 0.7, Seed: 1,
			NewTable: func(capacity int, seed uint64) (shard.Table, error) {
				return table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
			},
		})
	}
	replay := func(e *shard.Engine, t *tape) {
		for lo := 0; lo < perClient; lo += step {
			if n, err := putBatch(e, t.keys[lo:lo+step], t.vals[lo:lo+step]); err != nil || n != step {
				panic(fmt.Sprintf("PutBatch inserted %d of %d: %v", n, step, err))
			}
			for r := 2 * lo; r < 2*lo+2*step; r += step {
				if hits := e.GetBatch(t.reads[r:r+step], t.out, t.ok); hits != step {
					panic(fmt.Sprintf("present read hit %d of %d", hits, step))
				}
			}
			if hits := e.GetBatch(t.absent[lo:lo+step], t.out, t.ok); hits != 0 {
				panic(fmt.Sprintf("absent read hit %d", hits))
			}
			if lo > 0 {
				for _, k := range t.keys[lo-step:][:victims] {
					if !e.Delete(k) {
						panic("victim missing")
					}
				}
			}
		}
	}
	together := func(engines ...*shard.Engine) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for c, t := range tapes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replay(engines[c%len(engines)], t)
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	rows := float64(2 * (perClient*4 + (perClient/step-1)*victims))

	var one, shared, private time.Duration
	var sharedStats shard.Stats
	for i := 0; i < b.N; i++ {
		e := open()
		start := time.Now()
		replay(e, tapes[0])
		replay(e, tapes[1])
		one += time.Since(start)

		e = open()
		shared += together(e)
		st := e.Stats()
		sharedStats.ReadRetries += st.ReadRetries
		sharedStats.ReadFallbacks += st.ReadFallbacks
		sharedStats.LockParks += st.LockParks

		private += together(open(), open())
	}
	n := float64(b.N)
	b.ReportMetric(float64(one.Nanoseconds())/n/rows, "one-ns/row")
	b.ReportMetric(float64(shared.Nanoseconds())/n/rows, "shared-ns/row")
	b.ReportMetric(float64(private.Nanoseconds())/n/rows, "private-ns/row")
	b.ReportMetric(float64(shared)/float64(private), "shared/private")
	b.ReportMetric(float64(sharedStats.ReadRetries)/n, "retries/op")
	b.ReportMetric(float64(sharedStats.ReadFallbacks)/n, "fallbacks/op")
	b.ReportMetric(float64(sharedStats.LockParks)/n, "parks/op")
}

// BenchmarkHolderBesideWaiter measures what a waiter watching a held shard
// costs the holder. One goroutine runs 256-key PutBatch windows on a
// one-shard engine over a 2^20-slot Robin Hood table kept half full, in
// rw_resize's shape: each window inserts 256 fresh keys and applies the
// 256 logical deletes of the window before, whose keys the holder then
// deletes again. A second goroutine is (a) absent, (b) taking the shard's
// lock by watching its sequence word for a batched read's 40 µs before it
// parks, or (c) taking it through acquire itself, which yields its P
// between tries; each lets go at once and asks again. Each iteration runs
// the three modes in turn and reports the holder's ns per window in each
// (the PutBatch calls alone): where the two goroutines share a core, as
// hyperthreads do, a waiting loop takes the holder's cycles, and a parked
// waiter costs it only the wake-up at Unlock. Run with -cpu 2; with one P a
// watcher parks at once and the yielder hands the holder its P. Timing, so
// no test asserts it.
func BenchmarkHolderBesideWaiter(b *testing.B) {
	const (
		base    = 1 << 19
		window  = 256
		blocks  = 64
		windows = 2000
	)
	e := shard.MustNew(shard.Config{
		Shards: 1, Capacity: 2 * base, Seed: 1,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			return table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
		},
	})
	keys, vals := make([]uint64, base+blocks*window), make([]uint64, base+blocks*window)
	for i := range keys {
		keys[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		vals[i] = uint64(i)
	}
	if _, err := putBatch(e, keys[:base], vals[:base]); err != nil {
		b.Fatal(err)
	}
	pass := func(wait func()) time.Duration {
		var stop atomic.Bool
		var wg sync.WaitGroup
		if wait != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					wait()
				}
			}()
		}
		var held time.Duration
		for w := range windows {
			lo := base + w%blocks*window
			ks, vs := keys[lo:lo+window], vals[lo:lo+window]
			start := time.Now()
			if n, err := putBatch(e, ks, vs); err != nil || n != window {
				b.Fatalf("PutBatch inserted %d of %d: %v", n, window, err)
			}
			held += time.Since(start)
			for _, k := range ks {
				e.Delete(k)
			}
		}
		stop.Store(true)
		wg.Wait()
		return held
	}
	watch := func() { shard.WatchThenLock(e) }
	yield := func() { shard.AcquireThenUnlock(e) }
	var alone, watched, yielded time.Duration
	b.ResetTimer()
	for range b.N {
		alone += pass(nil)
		watched += pass(watch)
		yielded += pass(yield)
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*windows) }
	b.ReportMetric(per(alone), "alone-ns/window")
	b.ReportMetric(per(watched), "watch40us-ns/window")
	b.ReportMetric(per(yielded), "acquire-ns/window")
}
