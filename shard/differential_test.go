package shard_test

// Concurrent differential test: 8 writer goroutines replay interleaved RW
// op tapes (bench.GenRWTape) against one shard.Engine and validate
// every operation's result against a mutex-guarded builtin-map oracle.
// The goroutines' tapes draw from disjoint index ranges of one injective
// distribution, so each goroutine's keys are private — its oracle view is
// exact — while all goroutines contend on the shared shards. A ninth
// goroutine hammers the sentinel keys (0 and 2^64-1, whose literal values
// collide with the empty/tombstone slot markers), and a tenth runs the
// weakly-consistent iterator throughout, checking the invariants that
// survive concurrent writers: no key yielded twice in one pass, and every
// yielded value is one some writer actually stored.
//
// The engine starts near its growth threshold with a small migration
// chunk, so shards resize incrementally throughout the run and the reads,
// writes and iterations constantly cross mid-migration state. This is the
// test the CI job runs with -race (go test -run Differential -race
// ./shard/...).

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/bench"
	"repro/dist"
	"repro/internal/fault"
	"repro/shard"
	"repro/table"
)

// valTag makes stored values a checkable function of their key, so the
// iterator can validate entries it observes mid-write.
const valTag = 0x5ca1_ab1e_ca5c_ade5

// stride spaces the goroutines' generator index ranges. It sits above
// GenRWTape's guaranteed-miss offset (2^40), so each goroutine's whole
// index window — inserts plus 2^40-offset miss probes — fits inside its
// own stride and never collides with another goroutine's.
const stride = uint64(1) << 41

// offsetGen carves a disjoint per-goroutine index range out of one
// injective distribution.
type offsetGen struct {
	gen  dist.Generator
	base uint64
}

func (g offsetGen) Kind() dist.Kind     { return g.gen.Kind() }
func (g offsetGen) Key(i uint64) uint64 { return g.gen.Key(g.base + i) }
func (g offsetGen) Keys(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.Key(uint64(i))
	}
	return out
}
func (g offsetGen) AbsentKeys(n, m int) []uint64 {
	out := make([]uint64, m)
	for i := range out {
		out[i] = g.Key(uint64(n + i))
	}
	return out
}

func TestDifferentialConcurrentTapes(t *testing.T) {
	const (
		goroutines = 8
		initial    = 500
		ops        = 15000
		updatePct  = 60
	)
	e := shard.MustNew(shard.Config{
		Shards:         8,
		Capacity:       1 << 12, // small: growth starts early and recurs
		GrowAt:         0.8,
		Seed:           17,
		MigrationChunk: 64, // long migration windows: more mid-migration ops
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			return table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
		},
	})

	var omu sync.Mutex
	oracle := map[uint64]uint64{}

	gen := dist.New(dist.Sparse, 23)
	var wg sync.WaitGroup
	done := make(chan struct{})

	// Writer goroutines: interleaved tape replay, oracle-checked per op.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			og := offsetGen{gen: gen, base: uint64(g) * stride}
			tape := bench.GenRWTape(og, initial, ops, updatePct, uint64(g)*977+1)
			// Pre-fill this goroutine's initial live set (concurrently with
			// the other goroutines' replays — the tape's first ops assume
			// these keys are live).
			for i := 0; i < initial; i++ {
				k := og.Key(uint64(i))
				if _, err := tryPut(e, k, k^valTag); err != nil {
					t.Errorf("g%d prefill Put(%d): %v", g, k, err)
					return
				}
				omu.Lock()
				oracle[k] = k ^ valTag
				omu.Unlock()
			}
			for i, kind := range tape.Kinds {
				k := tape.Keys[i]
				switch kind {
				case bench.OpInsert:
					omu.Lock()
					_, existed := oracle[k]
					omu.Unlock()
					if i%3 == 0 {
						_, loaded, err := getOrPut(e, k, k^valTag)
						if err != nil {
							t.Errorf("g%d GetOrPut(%d): %v", g, k, err)
							return
						}
						if loaded != existed {
							t.Errorf("g%d GetOrPut(%d) loaded=%v, oracle existed=%v", g, k, loaded, existed)
							return
						}
					} else {
						ins, err := tryPut(e, k, k^valTag)
						if err != nil {
							t.Errorf("g%d Put(%d): %v", g, k, err)
							return
						}
						if ins == existed {
							t.Errorf("g%d Put(%d) inserted=%v, oracle existed=%v", g, k, ins, existed)
							return
						}
					}
					omu.Lock()
					oracle[k] = k ^ valTag
					omu.Unlock()
				case bench.OpDelete:
					omu.Lock()
					_, existed := oracle[k]
					delete(oracle, k)
					omu.Unlock()
					if had := e.Delete(k); had != existed {
						t.Errorf("g%d Delete(%d) = %v, oracle existed=%v", g, k, had, existed)
						return
					}
				case bench.OpLookupHit, bench.OpLookupMiss:
					omu.Lock()
					want, existed := oracle[k]
					omu.Unlock()
					v, ok := e.Get(k)
					if ok != existed || (ok && v != want) {
						t.Errorf("g%d Get(%d) = (%d,%v), oracle (%d,%v)", g, k, v, ok, want, existed)
						return
					}
				}
			}
		}(g)
	}

	// Sentinel goroutine: the keys 0 and 2^64-1 cycle through
	// insert/update/upsert/delete while everything else churns. Only this
	// goroutine touches them, so its checks are exact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sentinels := []uint64{0, ^uint64(0)}
		for round := 0; round < 2000; round++ {
			for _, k := range sentinels {
				if _, err := tryPut(e, k, k^valTag); err != nil {
					t.Errorf("sentinel Put(%d): %v", k, err)
					return
				}
				if v, ok := e.Get(k); !ok || v != k^valTag {
					t.Errorf("sentinel Get(%d) = (%d,%v)", k, v, ok)
					return
				}
				if _, err := upsert(e, k, func(old uint64, exists bool) uint64 {
					if !exists || old != k^valTag {
						t.Errorf("sentinel Upsert(%d) got (%d,%v)", k, old, exists)
					}
					return k ^ valTag
				}); err != nil {
					t.Errorf("sentinel Upsert(%d): %v", k, err)
					return
				}
				if round%5 == 4 {
					if !e.Delete(k) {
						t.Errorf("sentinel Delete(%d) missed", k)
						return
					}
					if _, ok := e.Get(k); ok {
						t.Errorf("sentinel %d visible after delete", k)
						return
					}
					if _, err := tryPut(e, k, k^valTag); err != nil {
						t.Errorf("sentinel re-Put(%d): %v", k, err)
						return
					}
				}
			}
		}
		// Leave the sentinels deleted so the final oracle comparison
		// (which never tracked them) holds.
		e.Delete(0)
		e.Delete(^uint64(0))
	}()

	// Iterator goroutine: weakly-consistent passes during the churn. It
	// runs on its own WaitGroup — it only stops once the writers (tracked
	// by wg) are done.
	var iterWG sync.WaitGroup
	iterWG.Add(1)
	go func() {
		defer iterWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			seen := make(map[uint64]struct{}, 1<<13)
			for k, v := range e.All() {
				if _, dup := seen[k]; dup {
					t.Errorf("iterator yielded key %d twice in one pass", k)
					return
				}
				seen[k] = struct{}{}
				if v != k^valTag {
					t.Errorf("iterator observed impossible value %d for key %d", v, k)
					return
				}
			}
		}
	}()

	// Writers + sentinel finish first, then the iterator is released.
	wg.Wait()
	close(done)
	iterWG.Wait()

	if t.Failed() {
		return
	}
	// Full final comparison against the oracle.
	if e.Len() != len(oracle) {
		t.Fatalf("final Len = %d, oracle %d", e.Len(), len(oracle))
	}
	got := map[uint64]uint64{}
	e.Range(func(k, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(oracle) {
		t.Fatalf("final iteration yielded %d entries, oracle %d", len(got), len(oracle))
	}
	for k, v := range oracle {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("final content: key %d = (%d,%v), oracle %d", k, gv, ok, v)
		}
	}
	st := e.Stats()
	if st.MigrationsDone == 0 {
		t.Fatal("run never exercised an incremental migration")
	}
	if st.Migrating > 0 || st.MigrationsDone != st.MigrationsStarted {
		// Drain: mutations finish in-flight migrations deterministically.
		for e.Stats().Migrating > 0 {
			e.Delete(1) // key 1 is absent (sparse dist); advances migration
		}
	}
	t.Logf("final: %d entries, %d shards, %d migrations, %d entries migrated incrementally, %d rebuilds",
		len(oracle), st.Shards, st.MigrationsDone, st.MigratedEntries, st.Rebuilds)
}

// TestDifferentialReadMonotonic is the wait-free read path's
// linearizability-style hammer: ONE writer publishes strictly increasing
// versions of a fixed tracked-key set (plus churn keys that keep
// migrations — and therefore view republications and seqlock windows —
// rolling), while reader goroutines running Get and GetBatch assert that
//
//   - every observed value decodes to its own key's lane (a torn read
//     that escaped sequence validation cannot pass this),
//   - per reader, per key, observed versions never decrease (single-key
//     reads are linearizable: once a reader has seen version v, no later
//     read may return an older epoch's value),
//   - tracked keys are always present (they are never deleted, so a
//     reader catching a shard mid-transition must still find them).
//
// The CI shard job runs this under -race (where reads take the locked
// slow path — the fallback is real code too); the regular suite runs the
// optimistic seqlock protocol itself.
func TestDifferentialReadMonotonic(t *testing.T) {
	const (
		tracked   = 256
		churn     = 2048
		rounds    = 1200
		readers   = 4
		laneBits  = 20
		laneMask  = 1<<laneBits - 1
		churnBase = uint64(1) << 21 // disjoint generator range for churn keys
	)
	e := shard.MustNew(shard.Config{
		Shards:         4,
		Capacity:       1 << 10, // small: the churn forces repeated migrations
		GrowAt:         0.8,
		Seed:           29,
		MigrationChunk: 32,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			return table.New(table.SchemeRH, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
		},
	})

	gen := dist.New(dist.Sparse, 91)
	keys := make([]uint64, tracked)
	for i := range keys {
		keys[i] = gen.Key(uint64(i))
	}
	// encode packs (version, lane) into a value; decode's lane check is
	// what catches a torn read the sequence validation failed to discard.
	encode := func(version, lane int) uint64 {
		return uint64(version)<<laneBits | uint64(lane)
	}
	for i, k := range keys {
		if _, err := tryPut(e, k, encode(1, i)); err != nil {
			t.Fatalf("prefill Put(%d): %v", k, err)
		}
	}

	done := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			floor := make([]int, tracked) // per-reader monotonic floor per key
			vals := make([]uint64, tracked)
			ok := make([]bool, tracked)
			check := func(lane int, v uint64, present bool, via string) bool {
				if !present {
					t.Errorf("reader %d: %s lost tracked key %d (lane %d)", r, via, keys[lane], lane)
					return false
				}
				if got := int(v & laneMask); got != lane {
					t.Errorf("reader %d: %s key %d returned lane %d's value %#x — torn read escaped validation", r, via, keys[lane], got, v)
					return false
				}
				version := int(v >> laneBits)
				if version < floor[lane] {
					t.Errorf("reader %d: %s key %d went backwards: saw version %d after %d", r, via, keys[lane], version, floor[lane])
					return false
				}
				floor[lane] = version
				return true
			}
			for pass := 0; ; pass++ {
				select {
				case <-done:
					return
				default:
				}
				if pass%2 == 0 {
					for i, k := range keys {
						v, present := e.Get(k)
						if !check(i, v, present, "Get") {
							return
						}
					}
				} else {
					e.GetBatch(keys, vals, ok)
					for i := range keys {
						if !check(i, vals[i], ok[i], "GetBatch") {
							return
						}
					}
				}
			}
		}(r)
	}

	// The single writer: bump every tracked key's version each round, and
	// wave churn keys in and out so shards keep crossing the growth
	// threshold (migration begin/finish republishes the views the readers
	// are validating against).
	for round := 2; round < rounds+2 && !t.Failed(); round++ {
		for i, k := range keys {
			if _, err := tryPut(e, k, encode(round, i)); err != nil {
				t.Fatalf("round %d Put(%d): %v", round, k, err)
			}
		}
		switch round % 8 {
		case 0:
			for i := 0; i < churn; i++ {
				k := gen.Key(churnBase + uint64(i))
				if _, err := tryPut(e, k, k^valTag); err != nil {
					t.Fatalf("churn Put(%d): %v", k, err)
				}
			}
		case 4:
			for i := 0; i < churn; i++ {
				e.Delete(gen.Key(churnBase + uint64(i)))
			}
		}
	}
	close(done)
	readerWG.Wait()

	if t.Failed() {
		return
	}
	st := e.Stats()
	if st.MigrationsStarted == 0 {
		t.Fatal("hammer never exercised a migration (no view republications under read load)")
	}
	t.Logf("final: %d migrations, %d view publishes, %d read retries, %d read fallbacks",
		st.MigrationsDone, st.ViewPublishes, st.ReadRetries, st.ReadFallbacks)
}

// TestDifferentialTwoClients replays the benchmark's rw_resize step shape
// — a batch put, two batched reads of keys inserted earlier, one of keys
// never inserted, then scalar deletes of part of the step before — from
// two goroutines on one growing 4-shard engine, for every scheme. The
// clients own disjoint keys and values are a function of their keys, so
// every lane of every read is determined by the client's own map: a torn
// probe kept or a read finished under the wrong lock shows as a wrong
// lane, not as a changed count. It runs with two and with four Ps, and again under the
// seeded stall schedule, which stretches the migration steps the other
// client's reads and lock acquisitions wait behind; and once more with a
// migration step of one entry, where a resize lasts as many mutations as
// the shard had entries, so most reads find a shard mid-resize and take
// the batched frozen-then-successor read, over an overlay the victims'
// deletes fill, beside the other client's writes; and on a one-shard
// engine, whose batch calls route and stage like any other's. Under -race
// the reads take the locked path and the acquire helper is what is
// exercised.
func TestDifferentialTwoClients(t *testing.T) {
	const (
		clients   = 2
		perClient = 1 << 13
		step      = 512
		victims   = 128
	)
	gen := dist.New(dist.Sparse, 31)
	// replay returns how many of the client's reads began with a shard
	// mid-resize.
	replay := func(e *shard.Engine, c int) (midResize int, err error) {
		og := offsetGen{gen: gen, base: uint64(c) * stride}
		keys, absent := og.Keys(perClient), og.AbsentKeys(perClient, perClient)
		vals := make([]uint64, perClient)
		for i, k := range keys {
			vals[i] = k ^ valTag
		}
		own := make(map[uint64]uint64, perClient)
		live := make([]uint64, 0, perClient) // own's keys, to draw reads from
		rnd := uint64(c)*0x9e3779b97f4a7c15 + 1
		reads, out, ok := make([]uint64, step), make([]uint64, step), make([]bool, step)
		checkRead := func(what string, at int, keys []uint64) error {
			if e.Stats().Migrating > 0 {
				midResize++
			}
			hits, want := e.GetBatch(keys, out, ok), 0
			for i, k := range keys {
				v, present := own[k]
				if present {
					want++
				}
				if ok[i] != present || (present && out[i] != v) {
					return fmt.Errorf("client %d step %d %s lane %d: key %#x = (%#x,%v), own map (%#x,%v)", c, at, what, i, k, out[i], ok[i], v, present)
				}
			}
			if hits != want {
				return fmt.Errorf("client %d step %d %s: %d hits, own map %d", c, at, what, hits, want)
			}
			return nil
		}
		for lo := 0; lo < perClient; lo += step {
			n, err := putBatch(e, keys[lo:lo+step], vals[lo:lo+step])
			if err != nil || n != step {
				return midResize, fmt.Errorf("client %d step %d: PutBatch inserted %d of %d: %v", c, lo/step, n, step, err)
			}
			for i, k := range keys[lo : lo+step] {
				own[k] = vals[lo+i]
				if i >= victims {
					live = append(live, k)
				}
			}
			for range 2 {
				for i := range reads {
					rnd ^= rnd << 13
					rnd ^= rnd >> 7
					rnd ^= rnd << 17
					reads[i] = live[rnd%uint64(len(live))]
				}
				if err := checkRead("present read", lo/step, reads); err != nil {
					return midResize, err
				}
			}
			if err := checkRead("absent read", lo/step, absent[lo:lo+step]); err != nil {
				return midResize, err
			}
			if lo > 0 {
				for _, k := range keys[lo-step:][:victims] {
					if !e.Delete(k) {
						return midResize, fmt.Errorf("client %d step %d: Delete(%#x) found nothing", c, lo/step, k)
					}
					delete(own, k)
				}
				// Deleted a moment ago: dead in the overlay, or gone from
				// the successor.
				if err := checkRead("deleted read", lo/step, keys[lo-step:][:victims]); err != nil {
					return midResize, err
				}
			}
		}
		// The last step's victims are still live: every key a client read
		// as a survivor, plus those.
		if len(own) != len(live)+victims {
			return midResize, fmt.Errorf("client %d: own map ends with %d keys, tape says %d", c, len(own), len(live)+victims)
		}
		return midResize, nil
	}

	type variant struct {
		name   string
		shards int
		stalls bool
		chunk  int // 0: the default step
	}
	variants := []variant{{"stalls=false", 4, false, 0}, {"stalls=true", 4, true, 0}, {"midresize", 4, false, 1}, {"shards=1", 1, false, 0}}
	for _, scheme := range table.AllSchemes() {
		for _, procs := range []int{2, 4} {
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/p%d/%s", scheme, procs, v.name), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					e := shard.MustNew(shard.Config{
						Shards: v.shards, Capacity: 1 << 10, GrowAt: 0.7, Seed: 13, MigrationChunk: v.chunk,
						NewTable: func(capacity int, seed uint64) (shard.Table, error) {
							return table.New(scheme, table.Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: seed})
						},
					})
					if v.stalls {
						var rates [fault.NumKinds]float64
						rates[fault.Stall] = 0.05
						fault.Arm(fault.Config{Seed: 41, Rates: rates, StallYields: 2})
						defer fault.Disarm()
					}
					var wg sync.WaitGroup
					var midResize atomic.Int64
					for c := range clients {
						wg.Add(1)
						go func() {
							defer wg.Done()
							n, err := replay(e, c)
							if err != nil {
								t.Error(err)
							}
							midResize.Add(int64(n))
						}()
					}
					wg.Wait()
					st := e.Stats()
					if want := clients * (perClient - (perClient/step-1)*victims); st.Len != want {
						t.Errorf("Len = %d after both tapes, want %d", st.Len, want)
					}
					if st.MigrationsStarted < 4 {
						t.Errorf("only %d migrations: the tapes were meant to cross several doublings per shard", st.MigrationsStarted)
					}
					// Five reads a step but the first, four in that.
					if reads := int64(clients * (5*perClient/step - 1)); v.chunk == 1 && midResize.Load() < reads/3 {
						t.Errorf("%d of %d reads began with a shard mid-resize: the one-entry step was meant to keep them there", midResize.Load(), reads)
					}
				})
			}
		}
	}
}
