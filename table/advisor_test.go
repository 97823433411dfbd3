package table

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	bad := []Workload{
		{LoadFactor: 0, UnsuccessfulPct: 0},
		{LoadFactor: 1, UnsuccessfulPct: 0},
		{LoadFactor: -0.5, UnsuccessfulPct: 0},
		{LoadFactor: math.NaN(), UnsuccessfulPct: 0},
		{LoadFactor: 0.5, UnsuccessfulPct: -1},
		{LoadFactor: 0.5, UnsuccessfulPct: 101},
	}
	for _, w := range append(bad, Workload{}) {
		if _, _, err := Recommend(w); err == nil {
			t.Errorf("Recommend(%+v) accepted invalid workload", w)
		}
	}
}

// TestPaperConclusions pins each terminal of Figure 8 to the workload the
// paper says it wins, and checks that Open(WithWorkload) acts on it with
// Figure 8's one hash function, Mult.
func TestPaperConclusions(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
		want Scheme
	}{
		// §5.1: "at low load factors (< 50%), LPMult is the way to go if
		// most queries are successful, and ChainedH24 must be considered
		// otherwise."
		{"lowLF mostly successful", Workload{LoadFactor: 0.3, UnsuccessfulPct: 10}, SchemeLP},
		{"lowLF mostly unsuccessful", Workload{LoadFactor: 0.3, UnsuccessfulPct: 90}, SchemeChained24},
		// §6: "in a write-heavy workload, quadratic probing looks as the
		// best option in general."
		{"dynamic write-heavy", Workload{LoadFactor: 0.7, WriteHeavy: true, Dynamic: true}, SchemeQP},
		{"static write-heavy sparse", Workload{LoadFactor: 0.9, WriteHeavy: true}, SchemeQP},
		// §5.2 Figure 4(a): LPMult wins inserts on dense keys.
		{"static write-heavy dense", Workload{LoadFactor: 0.9, WriteHeavy: true, Dense: true}, SchemeLP},
		// §5.2: "from a load factor of 80% on, CuckooH4 clearly surpasses
		// the other methods."
		{"read-mostly very full", Workload{LoadFactor: 0.85, UnsuccessfulPct: 10}, SchemeCuckooH4},
		{"miss-heavy and 90% full", Workload{LoadFactor: 0.95, UnsuccessfulPct: 80}, SchemeCuckooH4},
		// §5.2: ChainedH24 wins degenerate unsuccessful-lookup cases where
		// it fits memory.
		{"miss-heavy at 50-70%", Workload{LoadFactor: 0.6, UnsuccessfulPct: 90}, SchemeChained24},
		// §5.2: RH between those extremes.
		{"miss-heavy at 80%", Workload{LoadFactor: 0.8, UnsuccessfulPct: 80}, SchemeRH},
		// §5.2: "RH is an excellent all-rounder."
		{"read-mostly moderate", Workload{LoadFactor: 0.7, UnsuccessfulPct: 25}, SchemeRH},
		{"dense read-mostly moderate", Workload{LoadFactor: 0.7, UnsuccessfulPct: 25, Dense: true}, SchemeLP},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, path, err := Recommend(c.w)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("Recommend(%+v) = %s, want %s\npath: %v", c.w, got, c.want, path)
			}
			if len(path) == 0 {
				t.Fatal("empty decision path")
			}
			h, err := Open(WithWorkload(c.w), WithCapacity(8))
			if err != nil {
				t.Fatal(err)
			}
			if h.Scheme() != got || h.HashName() != "Mult" || !slices.Equal(h.DecisionPath(), path) {
				t.Fatalf("Open(WithWorkload) = %s%s %v; Figure 8 picks %sMult %v",
					h.Scheme(), h.HashName(), h.DecisionPath(), got, path)
			}
		})
	}
}

// TestExhaustiveGraph walks a fine grid of the whole workload space: every
// point must produce a valid recommendation with a nonempty rationale, and
// the output must be one of the five Figure 8 terminals — never the LPSoA
// layout variant, which the graph does not have.
func TestExhaustiveGraph(t *testing.T) {
	terminals := map[Scheme]bool{
		SchemeLP: true, SchemeQP: true, SchemeRH: true,
		SchemeCuckooH4: true, SchemeChained24: true,
	}
	reached := map[Scheme]bool{}
	for lf := 5; lf <= 95; lf += 5 {
		for _, u := range []int{0, 25, 50, 75, 100} {
			for _, wh := range []bool{false, true} {
				for _, dyn := range []bool{false, true} {
					for _, dense := range []bool{false, true} {
						w := Workload{
							LoadFactor:      float64(lf) / 100,
							UnsuccessfulPct: u,
							WriteHeavy:      wh,
							Dynamic:         dyn,
							Dense:           dense,
						}
						s, path, err := Recommend(w)
						if err != nil {
							t.Fatalf("Recommend(%+v): %v", w, err)
						}
						if !terminals[s] {
							t.Fatalf("Recommend(%+v) = %s, not a Figure 8 terminal", w, s)
						}
						if len(path) == 0 {
							t.Fatalf("Recommend(%+v): empty decision path", w)
						}
						reached[s] = true
					}
				}
			}
		}
	}
	for s := range terminals {
		if !reached[s] {
			t.Errorf("terminal %s unreachable in the grid sweep", s)
		}
	}
}

// TestQuickDeterminism: equal workloads yield equal recommendations.
func TestQuickDeterminism(t *testing.T) {
	prop := func(lf uint8, u uint8, wh, dyn, dense bool) bool {
		w := Workload{
			LoadFactor:      float64(lf%99+1) / 100,
			UnsuccessfulPct: int(u) % 101,
			WriteHeavy:      wh,
			Dynamic:         dyn,
			Dense:           dense,
		}
		a, pa, err1 := Recommend(w)
		b, pb, err2 := Recommend(w)
		if err1 != nil || err2 != nil {
			return false
		}
		return a == b && slices.Equal(pa, pb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
