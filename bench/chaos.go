package bench

// Chaos harness: the RW differential replay run under a seeded fault
// schedule. T goroutines replay disjoint RW tapes against ONE sharded
// handle while internal/fault injects table refusals, worker panics, and
// scheduler stalls at the rates of the armed plan. Every injected failure
// must be either absorbed by the engine (refusals inside it grow the
// shard, stalls just reshuffle timing) or surfaced as a typed error the
// replay can classify (injected *table.FullError refusals, contained
// *exec.PanicError rounds) — anything else fails the run. Each goroutine
// mirrors its applied operations into a private map oracle, so after the
// faults are disarmed and the engine has drained, the handle must agree
// with the union of the oracles exactly.

import (
	"context"
	"errors"
	"fmt"

	"repro/decision"
	"repro/dist"
	"repro/exec"
	"repro/hashfn"
	"repro/internal/fault"
	"repro/shard"
	"repro/table"
)

// threadStride spaces the threads' generator index ranges. Each thread's
// whole window — inserts below missBase (2^40) plus miss lookups at
// missBase+i — must fit inside its stride, so the stride sits a factor of
// two above missBase: thread g uses indexes in
// [g*2^41, g*2^41 + 2^40 + tapeLen), disjoint from every other thread's
// window for any thread count.
const threadStride = uint64(1) << 41

// offsetGen shifts a distribution's index space by a fixed base, carving
// disjoint per-thread key ranges out of one injective generator.
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

// chaosValSalt derives a stored value from its key, so value corruption
// is distinguishable from key corruption in the differential check.
const chaosValSalt = 0xa5a5_a5a5_5a5a_5a5a

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	// Scheme selects the table kernel (default LP). Family is the hash
	// class (default Mult); Dist the key distribution (default Dense).
	Scheme table.Scheme
	Family hashfn.Family
	Dist   dist.Kind
	// Threads is the number of replaying goroutines; the handle is
	// sharded with decision.ShardsFor(Threads).
	Threads int
	// InitialKeys pre-fills the table per thread before faults are
	// armed; Ops is the tape length per thread.
	InitialKeys int
	Ops         int
	// UpdatePct is the tape's update percentage (see GenRWTape).
	UpdatePct int
	// Rounds splits each tape into this many chunks; faults stay armed
	// across all of them, and a round aborted by an injected panic
	// resumes where its threads' cursors stopped. After the armed
	// rounds one fault-free pass completes every tape (default 4).
	Rounds int
	// GrowAt is the shards' growth threshold (default 0.85).
	GrowAt float64
	Seed   uint64
	// Faults is the schedule armed for the replay rounds.
	Faults fault.Config
	// Ctx cancels the replay between morsels; it is threaded into the
	// exec pool (nil means context.Background()).
	Ctx context.Context
}

// ChaosResult reports what one chaos run absorbed and surfaced.
type ChaosResult struct {
	Label   string
	Threads int
	Shards  int
	// Ops is the total tape length across threads; every operation is
	// eventually either Applied (mirrored to the oracle) or skipped on
	// a typed refusal.
	Ops     int
	Applied int
	// SkippedInjected counts mutations refused with an injected
	// *table.FullError or raw fault.ErrInjected.
	SkippedInjected int
	// PanickedRounds counts replay rounds aborted by a contained
	// *exec.PanicError (the affected cursors resume next round).
	PanickedRounds int
	FinalLen       int
	// Faults is the plan's counter snapshot at disarm time; Stats the
	// engine's final observability snapshot.
	Faults fault.Counts
	Stats  shard.Stats
}

// chaosThread is one goroutine's private replay state. Rounds are
// separated by pool barriers, so the per-thread tallies need no atomics.
type chaosThread struct {
	gen    offsetGen
	tape   *Tape
	oracle map[uint64]uint64
	cursor int
	rot    int // insert-primitive rotation: Put, GetOrPut, Upsert

	applied, injected int
}

// RunChaos replays cfg's differential chaos workload and returns the
// tally. The fault plan is armed after the pre-fill and disarmed (via
// defer, so failures cannot leak an armed plan into the caller's
// process) before the drain and final differential check.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	if cfg.Threads < 1 {
		return ChaosResult{}, fmt.Errorf("bench: chaos needs at least 1 thread, got %d", cfg.Threads)
	}
	if cfg.Scheme == "" {
		cfg.Scheme = table.SchemeLP
	}
	if cfg.Family == nil {
		cfg.Family = hashfn.MultFamily{}
	}
	if cfg.Dist == "" {
		cfg.Dist = dist.Dense
	}
	if cfg.Rounds < 1 {
		cfg.Rounds = 4
	}
	if cfg.GrowAt == 0 {
		cfg.GrowAt = 0.85
	}
	if !(cfg.GrowAt > 0 && cfg.GrowAt < 1) {
		return ChaosResult{}, fmt.Errorf("bench: chaos grow-at threshold must be in (0,1), got %v", cfg.GrowAt)
	}

	// At least two shards even single-threaded, so the handle always has
	// an engine (and with it Drain, the post-chaos settling hook).
	shards := decision.ShardsFor(cfg.Threads)
	if shards < 2 {
		shards = 2
	}
	m, err := table.Open(
		table.WithScheme(cfg.Scheme),
		table.WithCapacity(initialCapacityFor(cfg.InitialKeys*cfg.Threads)),
		table.WithMaxLoadFactor(cfg.GrowAt),
		table.WithHashFamily(cfg.Family),
		table.WithSeed(cfg.Seed),
		table.WithPartitions(shards),
	)
	if err != nil {
		return ChaosResult{}, err
	}
	res := ChaosResult{
		Label:   fmt.Sprintf("%s%s/%dthr/chaos", cfg.Scheme, cfg.Family.Name(), cfg.Threads),
		Threads: cfg.Threads,
		Shards:  m.Partitions(),
	}

	base := dist.New(cfg.Dist, cfg.Seed)
	threads := make([]chaosThread, cfg.Threads)
	for g := range threads {
		th := &threads[g]
		th.gen = offsetGen{gen: base, base: uint64(g) * threadStride}
		th.tape = GenRWTape(th.gen, cfg.InitialKeys, cfg.Ops, cfg.UpdatePct, cfg.Seed+uint64(g))
		th.oracle = make(map[uint64]uint64, cfg.InitialKeys+th.tape.Inserts)
		res.Ops += th.tape.Len()
	}

	pool := exec.NewPool(exec.Config{Workers: cfg.Threads, Ctx: cfg.Ctx})
	defer pool.Close()

	// Fault-free concurrent pre-fill, mirrored into the oracles.
	if err := pool.ForEach(cfg.Threads, func(_, g int) error {
		th := &threads[g]
		for i := 0; i < cfg.InitialKeys; i++ {
			k := th.gen.Key(uint64(i))
			v := k ^ chaosValSalt
			if _, err := m.Put(k, v); err != nil {
				return err
			}
			th.oracle[k] = v
		}
		return nil
	}); err != nil {
		return res, err
	}

	fault.Arm(cfg.Faults)
	defer fault.Disarm()

	// Armed rounds: each replays one tape chunk per thread. A round
	// aborted by a contained injected panic leaves the panicked (and any
	// never-claimed) chunks at their cursors; they resume next round.
	chunk := (cfg.Ops + cfg.Rounds - 1) / cfg.Rounds
	for round := 0; round < cfg.Rounds; round++ {
		err := pool.ForEach(cfg.Threads, func(_, g int) error {
			return replayChaos(m, &threads[g], g, chunk)
		})
		if err != nil {
			var pe *exec.PanicError
			if errors.As(err, &pe) {
				res.PanickedRounds++
				continue
			}
			return res, err
		}
	}
	res.Faults = fault.Snapshot()
	fault.Disarm()

	// Fault-free completion: every cursor runs to the end of its tape
	// (panicked rounds may have left arbitrary prefixes unreplayed).
	if err := pool.ForEach(cfg.Threads, func(_, g int) error {
		th := &threads[g]
		return replayChaos(m, th, g, th.tape.Len()-th.cursor)
	}); err != nil {
		return res, err
	}
	for g := range threads {
		th := &threads[g]
		res.Applied += th.applied
		res.SkippedInjected += th.injected
	}

	// Drain: with the injector disarmed, one Drain call retires every
	// in-flight migration and parked carry entry without waiting for
	// organic mutations.
	if !m.Engine().Drain() {
		return res, fmt.Errorf("bench: chaos engine still migrating after drain: %+v", m.EngineStats())
	}
	if st := m.EngineStats(); st.Migrating != 0 {
		return res, fmt.Errorf("bench: chaos engine reports a migrating shard after drain: %+v", st)
	}

	// Final differential: the handle must agree with the union of the
	// oracles exactly — size, every key's value, and nothing extra.
	merged := make(map[uint64]uint64)
	for g := range threads {
		for k, v := range threads[g].oracle {
			merged[k] = v
		}
	}
	if m.Len() != len(merged) {
		return res, fmt.Errorf("bench: chaos left %d entries, oracle has %d", m.Len(), len(merged))
	}
	for k, v := range merged {
		got, ok := m.Get(k)
		if !ok || got != v {
			return res, fmt.Errorf("bench: chaos Get(%#x) = (%#x,%v), oracle %#x", k, got, ok, v)
		}
	}
	seen := 0
	for k, v := range m.All() {
		want, ok := merged[k]
		if !ok || v != want {
			return res, fmt.Errorf("bench: chaos All() yielded (%#x,%#x), oracle (%#x,%v)", k, v, want, ok)
		}
		seen++
	}
	if seen != len(merged) {
		return res, fmt.Errorf("bench: chaos All() yielded %d entries, oracle has %d", seen, len(merged))
	}
	res.FinalLen = m.Len()
	res.Stats = m.EngineStats()
	return res, nil
}

// classifyChaosErr records a typed, expected refusal on th and reports
// whether err was one: an injected refusal (*table.FullError from the
// handle entry hook, or a raw fault.ErrInjected chain). Anything else is
// a real failure.
func classifyChaosErr(th *chaosThread, err error) bool {
	var fe *table.FullError
	if errors.As(err, &fe) || errors.Is(err, fault.ErrInjected) {
		th.injected++
		return true
	}
	return false
}

// replayChaos replays up to limit operations of thread g's tape from its
// cursor, mirroring applied operations into the oracle and classifying
// typed refusals. Reads are differentially checked against the oracle on
// every operation — fault injection must never corrupt a lookup.
func replayChaos(m *table.Handle, th *chaosThread, g, limit int) error {
	end := th.cursor + limit
	if limit < 0 || end > th.tape.Len() {
		end = th.tape.Len()
	}
	for th.cursor < end {
		i := th.cursor
		kind, k := th.tape.Kinds[i], th.tape.Keys[i]
		th.cursor++
		switch kind {
		case OpInsert:
			val := k ^ chaosValSalt
			var err error
			switch th.rot % 3 {
			case 0:
				if _, err = m.Put(k, val); err == nil {
					th.oracle[k] = val
				}
			case 1:
				var actual uint64
				var loaded bool
				actual, loaded, err = m.GetOrPut(k, val)
				if err == nil {
					if want, ok := th.oracle[k]; ok {
						if !loaded || actual != want {
							return fmt.Errorf("bench: chaos thread %d op %d: GetOrPut(%#x) = (%#x,%v), oracle %#x", g, i, k, actual, loaded, want)
						}
					} else {
						if loaded || actual != val {
							return fmt.Errorf("bench: chaos thread %d op %d: GetOrPut(%#x) = (%#x,%v), oracle absent", g, i, k, actual, loaded)
						}
						th.oracle[k] = val
					}
				}
			default:
				var mismatch error
				var nv uint64
				nv, err = m.Upsert(k, func(old uint64, exists bool) uint64 {
					want, ok := th.oracle[k]
					if exists != ok || (ok && old != want) {
						mismatch = fmt.Errorf("bench: chaos thread %d op %d: Upsert(%#x) saw (%#x,%v), oracle (%#x,%v)", g, i, k, old, exists, want, ok)
					}
					if exists {
						return old
					}
					return val
				})
				if err == nil {
					if mismatch != nil {
						return mismatch
					}
					th.oracle[k] = nv
				}
			}
			th.rot++
			if err != nil {
				if !classifyChaosErr(th, err) {
					return fmt.Errorf("bench: chaos thread %d op %d (insert %#x): unexpected error: %w", g, i, k, err)
				}
			} else {
				th.applied++
			}
		case OpDelete:
			_, want := th.oracle[k]
			if ok := m.Delete(k); ok != want {
				return fmt.Errorf("bench: chaos thread %d op %d: Delete(%#x) = %v, oracle %v", g, i, k, ok, want)
			}
			delete(th.oracle, k)
			th.applied++
		default: // OpLookupHit / OpLookupMiss: differential, not tape, truth
			v, ok := m.Get(k)
			want, wok := th.oracle[k]
			if ok != wok || (wok && v != want) {
				return fmt.Errorf("bench: chaos thread %d op %d: Get(%#x) = (%#x,%v), oracle (%#x,%v)", g, i, k, v, ok, want, wok)
			}
			th.applied++
		}
	}
	return nil
}
