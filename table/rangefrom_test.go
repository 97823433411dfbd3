package table

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/prng"
)

type entry struct{ k, v uint64 }

// isChained reports the schemes whose RangeFrom resumes per bucket.
func isChained(s Scheme) bool { return s == SchemeChained8 || s == SchemeChained24 }

// walkFrom drives one RangeFrom walk of tb to its end, resuming from every
// position it is handed; stop(i) decides whether fn returns false on the
// i-th entry of the walk. It returns the entries in delivery order and
// how many calls the walk took. A scheme that is not chained must not
// call fn again after fn returned false.
func walkFrom(t *testing.T, tb Table, chained bool, stop func(i int) bool) (got []entry, calls int) {
	t.Helper()
	pos := 0
	for {
		calls++
		stopped := false
		next := tb.RangeFrom(pos, func(k, v uint64) bool {
			if stopped && !chained {
				t.Fatalf("%s: fn called with key %#x after it returned false", tb.Name(), k)
			}
			got = append(got, entry{k, v})
			if stop(len(got) - 1) {
				stopped = true
			}
			return !stopped
		})
		if !stopped {
			return got, calls
		}
		if next <= pos {
			t.Fatalf("%s: RangeFrom(%d) stopped and returned %d: the walk does not advance", tb.Name(), pos, next)
		}
		pos = next
		if calls > 1<<20 {
			t.Fatalf("%s: walk does not end", tb.Name())
		}
	}
}

// rangeOf collects tb's entries in Range order.
func rangeOf(tb Table) (out []entry) {
	rangeAll(tb, func(k, v uint64) bool {
		out = append(out, entry{k, v})
		return true
	})
	return out
}

// TestRangeFromMatchesRange: on every scheme, a RangeFrom walk resumed
// from each returned position — whatever the pattern of stops — delivers
// exactly Range's entries, in Range's order, each once.
func TestRangeFromMatchesRange(t *testing.T) {
	fills := []struct {
		name string
		keys func(rng *prng.SplitMix64) []uint64
	}{
		{"empty", func(*prng.SplitMix64) []uint64 { return nil }},
		{"sentinels-only", func(*prng.SplitMix64) []uint64 { return []uint64{0, ^uint64(0)} }},
		{"one", func(*prng.SplitMix64) []uint64 { return []uint64{42} }},
		{"mixed", func(rng *prng.SplitMix64) []uint64 {
			keys := []uint64{0, ^uint64(0), 1, ^uint64(0) - 1}
			for len(keys) < 300 {
				keys = append(keys, rng.Next())
			}
			return keys
		}},
	}
	for _, s := range AllSchemes() {
		for _, fill := range fills {
			t.Run(fmt.Sprintf("%s/%s", s, fill.name), func(t *testing.T) {
				rng := prng.NewSplitMix64(uint64(len(fill.name)) * 0x9e3779b97f4a7c15)
				tb := mustNew(s, Config{InitialCapacity: 64, MaxLoadFactor: 0.7, Seed: 11})
				keys := fill.keys(rng)
				for _, k := range keys {
					put(t, tb, k, k*3+1)
				}
				// Punch holes (tombstones, shifted runs, unlinked chain
				// entries), key 0 among them when there are enough keys.
				for i := 0; i+7 < len(keys); i += 7 {
					tb.Delete(keys[i])
				}
				want := rangeOf(tb)
				if len(want) != tb.Len() {
					t.Fatalf("Range yields %d entries of a table of %d", len(want), tb.Len())
				}
				patterns := []struct {
					name string
					stop func(i int) bool
				}{
					{"never", func(int) bool { return false }},
					{"every-entry", func(int) bool { return true }}, // includes a stop on the very first
					{"first-only", func(i int) bool { return i == 0 }},
					{"every-5th", func(i int) bool { return i%5 == 4 }},
					{"random", func(int) bool { return rng.Next()%3 == 0 }},
				}
				for _, p := range patterns {
					name := p.name
					got, calls := walkFrom(t, tb, isChained(s), p.stop)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: walk delivered %d entries, Range %d, or in another order", name, len(got), len(want))
					}
					if name == "never" && calls != 1 {
						t.Fatalf("an unstopped walk took %d calls", calls)
					}
					if name == "every-entry" && !isChained(s) && calls != len(want)+1 {
						t.Fatalf("stopping on each of %d entries took %d calls, want one per entry and one to find the end", len(want), calls)
					}
				}
			})
		}
	}
}

// TestRangeFromChainLongerThanBudget: the chained schemes resume per
// bucket, so a chain longer than the caller's stop budget is delivered
// whole by the call that reached it — fn keeps being handed the chain's
// entries after it returned false — and never again.
func TestRangeFromChainLongerThanBudget(t *testing.T) {
	for _, s := range []Scheme{SchemeChained8, SchemeChained24} {
		t.Run(string(s), func(t *testing.T) {
			// Growth off and eight directory slots: 400 keys make chains of
			// about fifty.
			tb := mustNew(s, Config{InitialCapacity: 8, Seed: 5})
			for k := uint64(0); k < 400; k++ {
				if _, err := tryPut(tb, k, k+7); err != nil {
					t.Fatal(err)
				}
			}
			want := rangeOf(tb)
			const budget = 3
			inCall := 0
			got, calls := walkFrom(t, tb, true, func(int) bool { inCall++; return inCall%budget == 0 })
			if !slices.Equal(got, want) {
				t.Fatalf("walk delivered %d entries, Range %d, or in another order", len(got), len(want))
			}
			if calls > tb.Capacity()+2 {
				t.Fatalf("%d calls over %d buckets: a chain was split across calls", calls, tb.Capacity())
			}
		})
	}
}

// TestRangeFromPositionsAreStable: on an unmutated table a position means
// the same entries however often it is used — what lets shard.Engine keep
// an integer as its whole migration cursor.
func TestRangeFromPositionsAreStable(t *testing.T) {
	for _, s := range AllSchemes() {
		tb := mustNew(s, Config{InitialCapacity: 256, MaxLoadFactor: 0.7, Seed: 3})
		for k := uint64(0); k < 150; k++ {
			put(t, tb, k*0x9e3779b97f4a7c15, k)
		}
		put(t, tb, ^uint64(0), 1)
		tail := func(pos int) (out []entry) {
			tb.RangeFrom(pos, func(k, v uint64) bool { out = append(out, entry{k, v}); return true })
			return out
		}
		all := tail(0)
		n := 0
		pos := tb.RangeFrom(0, func(uint64, uint64) bool { n++; return n < 40 })
		if !isChained(s) && n != 40 { // a chained walk runs on to its chain's end
			t.Fatalf("%s: a 40-entry budget delivered %d", s, n)
		}
		for range 3 {
			if got := tail(pos); !slices.Equal(got, all[n:]) {
				t.Fatalf("%s: position %d resumes with %d entries, want the %d after the first %d", s, pos, len(got), len(all)-n, n)
			}
		}
	}
}
