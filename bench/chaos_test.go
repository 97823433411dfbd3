package bench

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/table"
)

// TestRunChaosAllFaultKinds is the headline robustness test: a seeded
// schedule injecting every fault kind at once into a concurrent RW
// replay. Every kind must actually fire, every injected failure must be
// absorbed or surfaced typed (RunChaos fails otherwise), the engine must
// drain after disarming, the final state must match the map oracles
// exactly, and no goroutine may leak.
func TestRunChaosAllFaultKinds(t *testing.T) {
	before := runtime.NumGoroutine()

	var rates [fault.NumKinds]float64
	rates[fault.Full] = 0.02
	rates[fault.Panic] = 0.12
	rates[fault.Stall] = 0.05
	res, err := RunChaos(ChaosConfig{
		Scheme:      table.SchemeLP,
		Threads:     4,
		InitialKeys: 2000,
		Ops:         4000,
		UpdatePct:   60,
		Rounds:      6,
		GrowAt:      0.85,
		Seed:        42,
		Faults:      fault.Config{Seed: 42, Rates: rates, StallYields: 4},
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if fault.Armed() {
		t.Fatal("RunChaos returned with the fault plan still armed")
	}
	for k := fault.Full; int(k) < fault.NumKinds; k++ {
		if res.Faults.Fired[k] == 0 {
			t.Errorf("fault kind %v never fired (seen %d): %+v", k, res.Faults.Seen[k], res.Faults)
		}
	}
	// Every tape operation is consumed exactly once: applied, or skipped
	// on a typed refusal.
	if got := res.Applied + res.SkippedInjected; got != res.Ops {
		t.Errorf("applied %d + skipped %d = %d, want %d ops",
			res.Applied, res.SkippedInjected, got, res.Ops)
	}
	if res.Faults.Fired[fault.Panic] > 0 && res.PanickedRounds == 0 {
		t.Errorf("%d injected panics but no panicked rounds", res.Faults.Fired[fault.Panic])
	}
	if res.Stats.Migrating != 0 {
		t.Errorf("engine still migrating: %+v", res.Stats)
	}
	t.Logf("chaos: %+v", res)

	// The pool and every injected panic must be fully drained: no
	// goroutine outlives the run. The runtime may account dying
	// goroutines briefly, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after chaos run", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunChaosValidation covers the config error paths.
func TestRunChaosValidation(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Threads: 0}); err == nil {
		t.Error("Threads 0 accepted")
	}
	for _, growAt := range []float64{1.5, -0.5, math.NaN()} {
		if _, err := RunChaos(ChaosConfig{Threads: 1, GrowAt: growAt}); err == nil {
			t.Errorf("GrowAt %v accepted", growAt)
		}
	}
}

// chaosTapeKey maps a tape byte onto a 16-key working set including both
// sentinel-routed keys — the same encoding as the table kernel fuzz, so
// corpus entries stress the same key patterns.
func chaosTapeKey(b byte) uint64 {
	switch b & 15 {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	default:
		return uint64(b&15) * 0x9E3779B97F4A7C15
	}
}

// FuzzFaultSchedule replays a fuzzer-chosen operation tape against a
// sharded handle under a fuzzer-chosen fault schedule, differentially
// checked against a map oracle with typed-refusal tolerance: injected
// refusals may skip a mutation (the oracle skips it too) but may never
// corrupt a read, leak an untyped error, or leave the engine unable to
// drain once the schedule is disarmed.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), byte(32), []byte{0x00, 0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67})
	f.Add(uint64(7), byte(0), []byte{0x05, 0x3f, 0x05, 0x40, 0x03, 0x41, 0x02, 0x81})
	f.Add(uint64(42), byte(255), []byte("chaos tape with sentinels \x00\xff"))
	f.Fuzz(func(t *testing.T, seed uint64, fullB byte, tape []byte) {
		if len(tape) > 4096 {
			tape = tape[:4096]
		}
		m, err := table.Open(
			table.WithScheme(table.SchemeLP),
			table.WithCapacity(64),
			table.WithMaxLoadFactor(0.85),
			table.WithSeed(seed),
			table.WithPartitions(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		var rates [fault.NumKinds]float64
		rates[fault.Full] = float64(fullB) / 512
		rates[fault.Stall] = 0.05
		fault.Arm(fault.Config{Seed: seed, Rates: rates, StallYields: 2})
		defer fault.Disarm()

		oracle := map[uint64]uint64{}
		skip := func(err error) bool {
			var fe *table.FullError
			return errors.As(err, &fe) || errors.Is(err, fault.ErrInjected)
		}
		for i := 0; i+1 < len(tape); i += 2 {
			op, k := tape[i], chaosTapeKey(tape[i+1])
			v := uint64(i) + 1
			switch op % 5 {
			case 0:
				if _, err := m.Put(k, v); err != nil {
					if !skip(err) {
						t.Fatalf("op %d: Put(%#x): untyped error %v", i, k, err)
					}
				} else {
					oracle[k] = v
				}
			case 1:
				actual, loaded, err := m.GetOrPut(k, v)
				if err != nil {
					if !skip(err) {
						t.Fatalf("op %d: GetOrPut(%#x): untyped error %v", i, k, err)
					}
					continue
				}
				if want, ok := oracle[k]; ok {
					if !loaded || actual != want {
						t.Fatalf("op %d: GetOrPut(%#x) = (%#x,%v), oracle %#x", i, k, actual, loaded, want)
					}
				} else {
					if loaded || actual != v {
						t.Fatalf("op %d: GetOrPut(%#x) = (%#x,%v), oracle absent", i, k, actual, loaded)
					}
					oracle[k] = v
				}
			case 2:
				nv, err := m.Upsert(k, func(old uint64, exists bool) uint64 {
					if exists {
						return old + 1
					}
					return v
				})
				if err != nil {
					if !skip(err) {
						t.Fatalf("op %d: Upsert(%#x): untyped error %v", i, k, err)
					}
					continue
				}
				if want, ok := oracle[k]; ok && nv != want+1 {
					t.Fatalf("op %d: Upsert(%#x) = %#x, oracle had %#x", i, k, nv, want)
				}
				oracle[k] = nv
			case 3:
				want := false
				if _, ok := oracle[k]; ok {
					want = true
				}
				if got := m.Delete(k); got != want {
					t.Fatalf("op %d: Delete(%#x) = %v, oracle %v", i, k, got, want)
				}
				delete(oracle, k)
			default:
				got, ok := m.Get(k)
				want, wok := oracle[k]
				if ok != wok || (wok && got != want) {
					t.Fatalf("op %d: Get(%#x) = (%#x,%v), oracle (%#x,%v)", i, k, got, ok, want, wok)
				}
			}
		}

		// Disarm and drain: one Drain call must retire every migration.
		fault.Disarm()
		if !m.Engine().Drain() {
			t.Fatalf("engine still migrating after drain: %+v", m.EngineStats())
		}
		if st := m.EngineStats(); st.Migrating != 0 {
			t.Fatalf("engine reports a migrating shard after drain: %+v", st)
		}

		// Exact final differential.
		if m.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle %d", m.Len(), len(oracle))
		}
		for k, v := range oracle {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("Get(%#x) = (%#x,%v), oracle %#x", k, got, ok, v)
			}
		}
		seen := 0
		for k, v := range m.All() {
			if want, ok := oracle[k]; !ok || v != want {
				t.Fatalf("All() yielded (%#x,%#x), oracle (%#x,%v)", k, v, want, ok)
			}
			seen++
		}
		if seen != len(oracle) {
			t.Fatalf("All() yielded %d entries, oracle has %d", seen, len(oracle))
		}
	})
}
