package agg

import (
	"testing"

	"repro/hashfn"
)

// TestMultOnDenseGroupsDependsOnSeed is EXPERIMENTS.md's row on the
// group-by index: dense group keys 0..1023 into the default index (QP,
// 2,048 slots), two locals a seed as pipe seeds its workers. Under Mult the
// mean probe of a successful lookup depends on the multiplier the seed
// draws: over seeds 1..64 the best local reads ≤ 1.01, a perfect spread,
// and the worst ≥ 2.0. Murmur scatters the same keys like random ones,
// inside a band a quarter of a probe wide whatever the seed. Counted, no
// clock.
func TestMultOnDenseGroupsDependsOnSeed(t *testing.T) {
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i)
	}
	spread := func(fam hashfn.Family) (lo, hi float64) {
		lo = 1e9
		for seed := uint64(1); seed <= 64; seed++ {
			for w := range uint64(2) {
				g := MustNewGroupBy(Config{Family: fam, ExpectedGroups: len(keys), Seed: seed + (w+1)*0x9e3779b97f4a7c15})
				if err := g.AddBatch(keys, keys); err != nil {
					t.Fatal(err)
				}
				p := g.Stats().MeanProbe
				lo, hi = min(lo, p), max(hi, p)
			}
		}
		return lo, hi
	}
	if lo, hi := spread(hashfn.MultFamily{}); lo > 1.01 || hi < 2.0 {
		t.Errorf("Mult: locals' mean probe %.3f..%.3f over seeds 1..64, want ≤ 1.01 at best and ≥ 2.0 at worst", lo, hi)
	}
	if lo, hi := spread(hashfn.MurmurFamily{}); hi-lo > 0.25 {
		t.Errorf("Murmur: locals' mean probe %.3f..%.3f over seeds 1..64, want a band under 0.25 wide", lo, hi)
	}
}
