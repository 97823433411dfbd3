package decision

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/table"
)

func TestValidation(t *testing.T) {
	bad := []Workload{
		{LoadFactor: 0, UnsuccessfulPct: 0},
		{LoadFactor: 1, UnsuccessfulPct: 0},
		{LoadFactor: -0.5, UnsuccessfulPct: 0},
		{LoadFactor: 0.5, UnsuccessfulPct: -1},
		{LoadFactor: 0.5, UnsuccessfulPct: 101},
	}
	for _, w := range append(bad, Workload{}) {
		if _, err := Recommend(w); err == nil {
			t.Errorf("Recommend(%+v) accepted invalid workload", w)
		}
	}
}

// mustRecommend is Recommend for workloads a test knows are valid.
func mustRecommend(t *testing.T, w Workload) Choice {
	t.Helper()
	c, err := Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPaperConclusions pins each terminal of Figure 8 to the workload the
// paper says it wins.
func TestPaperConclusions(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
		want table.Scheme
	}{
		// §5.1: "at low load factors (< 50%), LPMult is the way to go if
		// most queries are successful, and ChainedH24 must be considered
		// otherwise."
		{"lowLF mostly successful", Workload{LoadFactor: 0.3, UnsuccessfulPct: 10}, table.SchemeLP},
		{"lowLF mostly unsuccessful", Workload{LoadFactor: 0.3, UnsuccessfulPct: 90}, table.SchemeChained24},
		// §6: "in a write-heavy workload, quadratic probing looks as the
		// best option in general."
		{"dynamic write-heavy", Workload{LoadFactor: 0.7, WriteHeavy: true, Dynamic: true}, table.SchemeQP},
		{"static write-heavy sparse", Workload{LoadFactor: 0.9, WriteHeavy: true}, table.SchemeQP},
		// §5.2 Figure 4(a): LPMult wins inserts on dense keys.
		{"static write-heavy dense", Workload{LoadFactor: 0.9, WriteHeavy: true, Dense: true}, table.SchemeLP},
		// §5.2: "from a load factor of 80% on, CuckooH4 clearly surpasses
		// the other methods."
		{"read-mostly very full", Workload{LoadFactor: 0.85, UnsuccessfulPct: 10}, table.SchemeCuckooH4},
		{"miss-heavy and 90% full", Workload{LoadFactor: 0.95, UnsuccessfulPct: 80}, table.SchemeCuckooH4},
		// §5.2: ChainedH24 wins degenerate unsuccessful-lookup cases where
		// it fits memory.
		{"miss-heavy at 50-70%", Workload{LoadFactor: 0.6, UnsuccessfulPct: 90}, table.SchemeChained24},
		// §5.2: RH between those extremes.
		{"miss-heavy at 80%", Workload{LoadFactor: 0.8, UnsuccessfulPct: 80}, table.SchemeRH},
		// §5.2: "RH is an excellent all-rounder."
		{"read-mostly moderate", Workload{LoadFactor: 0.7, UnsuccessfulPct: 25}, table.SchemeRH},
		{"dense read-mostly moderate", Workload{LoadFactor: 0.7, UnsuccessfulPct: 25, Dense: true}, table.SchemeLP},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := mustRecommend(t, c.w)
			if got.Scheme != c.want {
				t.Fatalf("Recommend(%+v) = %s, want %s\npath: %v", c.w, got.Scheme, c.want, got.Path)
			}
			if got.Family != "Mult" {
				t.Fatalf("Family = %s; Figure 8 always picks Mult", got.Family)
			}
			if len(got.Path) == 0 {
				t.Fatal("empty decision path")
			}
		})
	}
}

// TestExhaustiveGraph walks a fine grid of the whole workload space: every
// point must produce a valid recommendation with a nonempty rationale, and
// the output must be one of the five Figure 8 terminals.
func TestExhaustiveGraph(t *testing.T) {
	terminals := map[table.Scheme]bool{
		table.SchemeLP: true, table.SchemeQP: true, table.SchemeRH: true,
		table.SchemeCuckooH4: true, table.SchemeChained24: true,
	}
	reached := map[table.Scheme]bool{}
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
						c, err := Recommend(w)
						if err != nil {
							t.Fatalf("Recommend(%+v): %v", w, err)
						}
						if !terminals[c.Scheme] {
							t.Fatalf("Recommend(%+v) = %s, not a Figure 8 terminal", w, c.Scheme)
						}
						reached[c.Scheme] = true
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
		a, err1 := Recommend(w)
		b, err2 := Recommend(w)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Scheme == b.Scheme && a.Label() == b.Label()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabels(t *testing.T) {
	c := mustRecommend(t, Workload{LoadFactor: 0.85, UnsuccessfulPct: 0})
	if c.Label() != "CH4Mult" {
		t.Fatalf("CuckooH4 label = %s, want CH4Mult (Figure 8's abbreviation)", c.Label())
	}
	c = mustRecommend(t, Workload{LoadFactor: 0.3, UnsuccessfulPct: 0})
	if c.Label() != "LPMult" {
		t.Fatalf("label = %s, want LPMult", c.Label())
	}
	if !strings.Contains(c.String(), "LPMult") {
		t.Fatalf("String() = %s", c.String())
	}
}

func TestWorkersFor(t *testing.T) {
	if got := WorkersFor(0); got != 0 {
		t.Fatalf("WorkersFor(0) = %d, want 0 (no pool)", got)
	}
	if got := WorkersFor(1); got != 0 {
		t.Fatalf("WorkersFor(1) = %d, want 0 (single-threaded)", got)
	}
	g := runtime.GOMAXPROCS(0)
	for _, threads := range []int{2, 4, 1 << 20} {
		got := WorkersFor(threads)
		want := threads
		if want > g {
			want = g
		}
		if got != want {
			t.Fatalf("WorkersFor(%d) = %d, want %d (threads clamped to GOMAXPROCS=%d)", threads, got, want, g)
		}
	}
}
