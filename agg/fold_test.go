package agg

// AddBatch ≡ a scalar Add loop. The batched build looks rows up and sends
// only the misses down the insert path, in chunks, with a cold phase that
// skips the lookup; none of that may show in the result: the states —
// values AND first-seen order — are those of the row-at-a-time build.

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/prng"
	"repro/table"
)

// foldKey spreads small group ids over the key space; ids 0 and 1 are the
// tables' two sentinel keys.
func foldKey(id uint64) uint64 {
	switch id {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	}
	return id * 0x9e3779b97f4a7c15
}

// foldColumns draws n rows over distinct groups (0: every row its own).
func foldColumns(n int, distinct, seed uint64) (groups, values []uint64) {
	rng := prng.NewXoshiro256(seed)
	groups, values = make([]uint64, n), make([]uint64, n)
	for i := range groups {
		id := uint64(i)
		if distinct > 0 {
			id = rng.Uint64n(distinct)
		}
		groups[i], values[i] = foldKey(id), rng.Uint64n(1<<20)
	}
	return groups, values
}

// scalarFold is the oracle: one Add per row.
func scalarFold(t *testing.T, cfg Config, groups, values []uint64) *GroupBy {
	t.Helper()
	g := MustNewGroupBy(cfg)
	for i := range groups {
		if err := g.Add(groups[i], values[i]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// mustMatch fails unless got holds want's states in want's order, and its
// index finds every one of them.
func mustMatch(t *testing.T, got, want *GroupBy) {
	t.Helper()
	if !slices.Equal(got.states, want.states) {
		t.Fatalf("batched build has %d states, scalar %d, or they differ in value or order", len(got.states), len(want.states))
	}
	for i := range want.states {
		if s, ok := got.Get(want.states[i].Key); !ok || s != &got.states[i] {
			t.Fatalf("group %d: index does not lead to state %d", want.states[i].Key, i)
		}
	}
}

func TestAddBatchMatchesScalarFold(t *testing.T) {
	for _, scheme := range table.AllSchemes() {
		for _, distinct := range []uint64{1, 1024, 0} {
			for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 4097} {
				cfg := Config{Scheme: scheme, Seed: 11}
				groups, values := foldColumns(n, distinct, uint64(n)+distinct)
				got := MustNewGroupBy(cfg)
				// The second pass is all lookups, whatever the first was.
				for pass := 0; pass < 2; pass++ {
					if err := got.AddBatch(groups, values); err != nil {
						t.Fatalf("%s distinct=%d n=%d: %v", scheme, distinct, n, err)
					}
				}
				mustMatch(t, got, scalarFold(t, cfg, append(groups, groups...), append(values, values...)))
			}
		}
	}
}

// TestAddBatchNewGroupsAroundChunkEdges: a group first seen twice inside
// one chunk is opened once; one seen on each side of a chunk edge is
// opened by the first chunk and found by the second.
func TestAddBatchNewGroupsAroundChunkEdges(t *testing.T) {
	cfg := Config{Seed: 12}
	warm, warmVals := foldColumns(64, 8, 1)
	groups, values := foldColumns(3*chunk, 8, 2)
	for _, lane := range []int{10, 20} {
		groups[lane] = foldKey(100) // twice inside chunk 0
	}
	groups[chunk-1], groups[chunk] = foldKey(101), foldKey(101) // astride the first edge
	groups[2*chunk-1], groups[2*chunk+5] = foldKey(102), foldKey(102)

	got := MustNewGroupBy(cfg)
	for _, col := range [][2][]uint64{{warm, warmVals}, {groups, values}} {
		if err := got.AddBatch(col[0], col[1]); err != nil {
			t.Fatal(err)
		}
	}
	mustMatch(t, got, scalarFold(t, cfg, append(warm, groups...), append(warmVals, values...)))
	if s, _ := got.Get(foldKey(101)); s.Count != 2 {
		t.Fatalf("group astride the chunk edge counted %d times, want 2", s.Count)
	}
}

// TestAddBatchGrowsIndexMidChunk: one row in three opens a group, so the
// lookup path stays on while the index doubles under it; the states the
// earlier lookups resolved to stay valid.
func TestAddBatchGrowsIndexMidChunk(t *testing.T) {
	cfg := Config{Seed: 13}
	const n = 6000
	groups, values := foldColumns(n, 4, 3)
	for i := 0; i < n; i += 3 {
		groups[i] = foldKey(uint64(1000 + i))
	}
	got := MustNewGroupBy(cfg)
	before := got.idx.Capacity()
	if err := got.AddBatch(groups, values); err != nil {
		t.Fatal(err)
	}
	if got.cold {
		t.Fatal("a third of the rows opening groups turned the lookup off")
	}
	if after := got.idx.Capacity(); after <= before {
		t.Fatalf("index capacity %d → %d: the batch did not grow it", before, after)
	}
	mustMatch(t, got, scalarFold(t, cfg, groups, values))
}

// TestAddBatchColdWarmCold: a run of fresh groups turns the lookup off, a
// run of known ones turns it back on, and the phase carries across batch
// boundaries as well as across strides of one batch.
func TestAddBatchColdWarmCold(t *testing.T) {
	cfg := Config{Seed: 14}
	fresh, freshVals := foldColumns(chunk, 0, 4)
	known, knownVals := foldColumns(coldRun+2*chunk, 0, 5)
	for i := range known {
		known[i] = fresh[i%chunk]
	}
	fresh2, fresh2Vals := foldColumns(coldRun+chunk, 0, 6)
	for i := range fresh2 {
		fresh2[i] = foldKey(uint64(1_000_000 + i))
	}

	got := MustNewGroupBy(cfg)
	for i, step := range []struct {
		groups, values []uint64
		cold           bool
	}{{fresh, freshVals, true}, {known, knownVals, false}, {fresh2, fresh2Vals, true}} {
		if err := got.AddBatch(step.groups, step.values); err != nil {
			t.Fatal(err)
		}
		if got.cold != step.cold {
			t.Fatalf("after batch %d cold = %v, want %v", i, got.cold, step.cold)
		}
	}
	groups := slices.Concat(fresh, known, fresh2)
	values := slices.Concat(freshVals, knownVals, fresh2Vals)
	want := scalarFold(t, cfg, groups, values)
	mustMatch(t, got, want)

	whole := MustNewGroupBy(cfg)
	if err := whole.AddBatch(groups, values); err != nil {
		t.Fatal(err)
	}
	mustMatch(t, whole, want)
}

// TestAddBatchRefusalFoldsExactlyThePrefix: lookups pass no mutation entry
// point, so an armed Full injector cannot refuse a batch of known groups;
// a batch that opens one comes back with the typed chain, holding the
// scalar fold of the rows before the refused one and nothing of the rows
// after — at any refusal rate, on the lookup path and the cold one.
func TestAddBatchRefusalFoldsExactlyThePrefix(t *testing.T) {
	cfg := Config{Seed: 15}
	known, knownVals := foldColumns(3*chunk, 32, 7)
	arm := func(rate float64, seed uint64) {
		var rates [fault.NumKinds]float64
		rates[fault.Full] = rate
		fault.Arm(fault.Config{Seed: seed, Rates: rates})
	}
	defer fault.Disarm()

	for seed, rate := range []float64{1, 1, 0.5, 0.5, 0.5, 0.2} {
		groups, values := slices.Clone(known), slices.Clone(knownVals)
		if seed%2 == 1 { // every other row fresh: the batch goes cold
			groups, values = foldColumns(coldRun+3*chunk, 0, uint64(seed))
		}
		for _, lane := range []int{chunk + 5, chunk + 9, 2*chunk + 1} {
			groups[lane] = foldKey(uint64(500 + lane))
		}

		got := MustNewGroupBy(cfg)
		if err := got.AddBatch(known, knownVals); err != nil {
			t.Fatal(err)
		}
		arm(rate, uint64(seed))
		if err := got.AddBatch(known, knownVals); err != nil {
			t.Fatalf("rate %v: a batch of known groups was refused: %v", rate, err)
		}
		err := got.AddBatch(groups, values)
		fault.Disarm()

		folded := -2 * len(known)
		for i := range got.states {
			folded += int(got.states[i].Count)
		}
		if err == nil {
			if folded != len(groups) {
				t.Fatalf("rate %v seed %d: no error, %d of %d rows folded", rate, seed, folded, len(groups))
			}
		} else {
			var fe *table.FullError
			if !errors.As(err, &fe) || !errors.Is(err, table.ErrFull) {
				t.Fatalf("error %v is not the *table.FullError chain", err)
			}
			if _, opened := got.Get(groups[folded]); opened {
				t.Fatalf("rate %v seed %d: stopped at row %d, which opens no group", rate, seed, folded)
			}
		}
		want := scalarFold(t, cfg, slices.Concat(known, known, groups[:folded]), slices.Concat(knownVals, knownVals, values[:folded]))
		mustMatch(t, got, want)
	}
}
