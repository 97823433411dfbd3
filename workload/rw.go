package workload

import (
	"fmt"
	"time"

	"repro/dist"
	"repro/hashfn"
	"repro/internal/prng"
	"repro/obs"
	"repro/table"
)

// Op codes of the RW tape.
const (
	OpInsert uint8 = iota
	OpDelete
	OpLookupHit
	OpLookupMiss
)

// Tape is a pre-generated RW operation stream. The same tape is replayed
// against every scheme so all tables see bit-identical workloads; the
// delete/lookup targets were chosen by simulating the live key set once,
// independent of any table implementation.
type Tape struct {
	Kinds []uint8
	Keys  []uint64

	Inserts, Deletes, Hits, Misses int
	// FinalLive is the number of live keys after the whole tape.
	FinalLive int
}

// Len returns the number of operations on the tape.
func (t *Tape) Len() int { return len(t.Kinds) }

// missBase is the generator index where guaranteed-absent lookup keys
// start; no insert ever reaches it (tapes are far shorter than 2^40 ops).
const missBase = uint64(1) << 40

// GenRWTape generates an RW tape of ops operations over a table initially
// holding the first initial keys of gen (§6):
//
//   - with probability updatePct% the operation is an update, split
//     insert:delete = 4:1;
//   - otherwise it is a lookup, split successful:unsuccessful = 3:1.
//
// Deletes and successful lookups target uniformly random live keys;
// inserts take the next fresh key of the distribution; unsuccessful
// lookups take keys from a disjoint index range of the same distribution.
func GenRWTape(gen dist.Generator, initial, ops, updatePct int, seed uint64) *Tape {
	if updatePct < 0 || updatePct > 100 {
		panic(fmt.Sprintf("workload: update percentage %d outside [0,100]", updatePct))
	}
	rng := prng.NewXoshiro256(seed ^ 0x7a9e7a9e7a9e7a9e)
	t := &Tape{
		Kinds: make([]uint8, 0, ops),
		Keys:  make([]uint64, 0, ops),
	}
	live := make([]uint64, initial)
	for i := range live {
		live[i] = gen.Key(uint64(i))
	}
	nextFresh := uint64(initial)
	nextMiss := missBase
	for i := 0; i < ops; i++ {
		if int(rng.Uint64n(100)) < updatePct {
			// Update: insert 4 : delete 1, falling back to insert when
			// nothing is left to delete.
			if rng.Uint64n(5) < 4 || len(live) == 0 {
				k := gen.Key(nextFresh)
				nextFresh++
				live = append(live, k)
				t.Kinds = append(t.Kinds, OpInsert)
				t.Keys = append(t.Keys, k)
				t.Inserts++
			} else {
				j := rng.Intn(len(live))
				k := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				t.Kinds = append(t.Kinds, OpDelete)
				t.Keys = append(t.Keys, k)
				t.Deletes++
			}
			continue
		}
		// Lookup: successful 3 : unsuccessful 1.
		if rng.Uint64n(4) < 3 && len(live) > 0 {
			k := live[rng.Intn(len(live))]
			t.Kinds = append(t.Kinds, OpLookupHit)
			t.Keys = append(t.Keys, k)
			t.Hits++
		} else {
			k := gen.Key(nextMiss)
			nextMiss++
			t.Kinds = append(t.Kinds, OpLookupMiss)
			t.Keys = append(t.Keys, k)
			t.Misses++
		}
	}
	t.FinalLive = len(live)
	return t
}

// RWConfig parameterizes one RW experiment point.
type RWConfig struct {
	Scheme table.Scheme
	Family hashfn.Family
	Dist   dist.Kind
	// InitialKeys pre-fills the table before the timed stream; the paper
	// starts with 16 M keys at ~47% load factor.
	InitialKeys int
	// Ops is the length of the mixed stream (the paper runs 1000 M).
	Ops int
	// UpdatePct is the percentage of operations that are updates
	// (inserts+deletes); the paper sweeps {0, 5, 25, 50, 75, 100}.
	UpdatePct int
	// GrowAt is the load factor at which tables rehash; the paper sweeps
	// {0.5, 0.7, 0.9}.
	GrowAt float64
	Seed   uint64
	// Tape optionally supplies a pre-generated tape (shared across
	// schemes); when nil, one is generated from the other fields.
	Tape *Tape
	// LatencySample records every Nth replayed operation's latency into
	// the result's Latency snapshot. Zero means the default (every
	// 32nd); negative disables latency recording entirely. Sampling
	// keeps the recording cost (two clock reads plus two atomic adds
	// per sample) far below the replay's own per-op work.
	LatencySample int
}

// defaultLatencySample is the operation sampling stride when
// RWConfig.LatencySample (or ChaosConfig.LatencySample) is zero.
const defaultLatencySample = 32

// latencyEvery resolves a config's sampling stride: n, the default for
// zero, or 0 meaning disabled for negative values.
func latencyEvery(n int) int {
	if n == 0 {
		return defaultLatencySample
	}
	if n < 0 {
		return 0
	}
	return n
}

// RWResult reports one RW experiment point.
type RWResult struct {
	Label       string
	Ops         int
	Mops        float64
	MemoryBytes uint64
	FinalLen    int
	// Latency is the sampled per-operation latency distribution of the
	// timed replay (see RWConfig.LatencySample); zero-valued when
	// sampling is disabled.
	Latency obs.Snapshot
}

// initialCapacityFor returns a power-of-two capacity that places initial
// keys at just under 50% load factor, the paper's ~47% starting point.
func initialCapacityFor(initial int) int {
	c := 8
	for c < initial*2+1 {
		c *= 2
	}
	return c
}

// RunRW replays an RW tape against a freshly built table of the configured
// scheme and reports overall throughput and final memory. Lookup hit/miss
// counts are validated against the tape.
func RunRW(cfg RWConfig) (RWResult, error) {
	if cfg.Family == nil {
		cfg.Family = hashfn.MultFamily{}
	}
	if cfg.GrowAt <= 0 || cfg.GrowAt >= 1 {
		return RWResult{}, fmt.Errorf("workload: RW grow-at threshold must be in (0,1), got %v", cfg.GrowAt)
	}
	gen := dist.New(cfg.Dist, cfg.Seed)
	tape := cfg.Tape
	if tape == nil {
		tape = GenRWTape(gen, cfg.InitialKeys, cfg.Ops, cfg.UpdatePct, cfg.Seed)
	}
	// The RW stream is the dynamic (OLTP-style) case — exactly what the
	// Open façade targets — so the replay runs through a Handle: the
	// measured numbers include the one indirection every production
	// caller pays.
	m, err := table.Open(
		table.WithScheme(cfg.Scheme),
		table.WithCapacity(initialCapacityFor(cfg.InitialKeys)),
		table.WithMaxLoadFactor(cfg.GrowAt),
		table.WithHashFamily(cfg.Family),
		table.WithSeed(cfg.Seed),
	)
	if err != nil {
		return RWResult{}, err
	}
	res := RWResult{Label: string(cfg.Scheme) + cfg.Family.Name(), Ops: tape.Len()}

	// Untimed pre-fill.
	for i := 0; i < cfg.InitialKeys; i++ {
		m.Put(gen.Key(uint64(i)), uint64(i))
	}
	if m.Len() != cfg.InitialKeys {
		return res, fmt.Errorf("workload: RW prefill of %s expected %d entries, table has %d", res.Label, cfg.InitialKeys, m.Len())
	}

	every := latencyEvery(cfg.LatencySample)
	var lat *obs.Histogram
	if every > 0 {
		lat = obs.NewHistogram(1)
	}
	countdown := 0

	var hits, misses int
	var sink uint64
	start := time.Now()
	for i, kind := range tape.Kinds {
		k := tape.Keys[i]
		var t0 int64
		sampled := false
		if lat != nil {
			if countdown == 0 {
				countdown = every
				sampled = true
				t0 = obs.Now()
			}
			countdown--
		}
		switch kind {
		case OpInsert:
			m.Put(k, k)
		case OpDelete:
			m.Delete(k)
		default:
			if v, ok := m.Get(k); ok {
				hits++
				sink ^= v
			} else {
				misses++
			}
		}
		if sampled {
			lat.Record(0, obs.Now()-t0)
		}
	}
	elapsed := time.Since(start)
	_ = sink

	if hits != tape.Hits || misses != tape.Misses {
		return res, fmt.Errorf("workload: RW replay of %s observed %d hits/%d misses, tape has %d/%d",
			res.Label, hits, misses, tape.Hits, tape.Misses)
	}
	if want := cfg.InitialKeys + tape.Inserts - tape.Deletes; m.Len() != want {
		return res, fmt.Errorf("workload: RW replay of %s left %d entries, want %d", res.Label, m.Len(), want)
	}
	res.Mops = mops(tape.Len(), elapsed)
	res.MemoryBytes = m.MemoryFootprint()
	res.FinalLen = m.Len()
	if lat != nil {
		res.Latency = lat.Snapshot()
	}
	return res, nil
}
