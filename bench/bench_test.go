package bench

import (
	"strings"
	"testing"

	"repro/dist"
	"repro/table"
)

// tinyOpts keeps harness tests fast: 2^12-slot WORM tables, short RW tapes.
func tinyOpts() Options {
	return Options{
		Capacity:  1 << 12,
		Lookups:   1024,
		RWInitial: 1 << 9,
		RWOps:     1 << 13,
		Fig6Caps:  []int{1 << 10, 1 << 11, 1 << 12},
		Seed:      7,
	}
}

func TestRunFig2Structure(t *testing.T) {
	exps, err := RunFig2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 3 {
		t.Fatalf("got %d distributions, want 3", len(exps))
	}
	wantSeries := []string{
		"ChainedH8Mult", "ChainedH8Murmur",
		"ChainedH24Mult", "ChainedH24Murmur",
		"LPMult", "LPMurmur",
	}
	for _, e := range exps {
		if len(e.Series) != len(wantSeries) {
			t.Fatalf("%s: %d series, want %d", e.Dist, len(e.Series), len(wantSeries))
		}
		for i, s := range e.Series {
			if s.Label != wantSeries[i] {
				t.Fatalf("series %d = %s, want %s", i, s.Label, wantSeries[i])
			}
			for _, lf := range LowLoadFactors {
				if !s.OverBudget[lf] {
					if s.InsertMops[lf] <= 0 {
						t.Fatalf("%s lf=%d: no insert throughput", s.Label, lf)
					}
					if len(s.LookupMops[lf]) != len(Mixes) {
						t.Fatalf("%s lf=%d: %d mixes", s.Label, lf, len(s.LookupMops[lf]))
					}
				}
				if s.MemoryBytes[lf] == 0 {
					t.Fatalf("%s lf=%d: zero memory", s.Label, lf)
				}
			}
		}
	}
	// Rendering must include every series label.
	var sb strings.Builder
	RenderFig2(&sb, exps)
	for _, w := range wantSeries {
		if !strings.Contains(sb.String(), w) {
			t.Fatalf("rendered Fig2 missing %s", w)
		}
	}

	rows := Fig3FromFig2(exps)
	if len(rows) == 0 {
		t.Fatal("Fig3FromFig2 produced no rows")
	}
	for _, r := range rows {
		if r.MemoryBytes == 0 {
			t.Fatalf("row %+v has zero memory", r)
		}
	}
	sb.Reset()
	RenderFig3(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Fatal("RenderFig3 output malformed")
	}
}

func TestRunFig4SkipsChainedAboveBudget(t *testing.T) {
	exps, err := RunFig4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		for _, s := range e.Series {
			if !strings.HasPrefix(s.Label, "ChainedH24") {
				continue
			}
			if _, ok := s.InsertMops[50]; !ok {
				t.Fatalf("%s missing its 50%% point", s.Label)
			}
			for _, lf := range []int{70, 90} {
				if _, ok := s.InsertMops[lf]; ok {
					t.Fatalf("%s has a %d%% point; the paper drops chained above 50%%", s.Label, lf)
				}
			}
		}
	}
	var sb strings.Builder
	RenderFig4(&sb, exps)
	if !strings.Contains(sb.String(), "CuckooH4Mult") {
		t.Fatal("rendered Fig4 missing CuckooH4Mult")
	}
}

func TestRunFig5Structure(t *testing.T) {
	exps, err := RunFig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(GrowAtPcts) {
		t.Fatalf("%d grow-at panels, want %d", len(exps), len(GrowAtPcts))
	}
	for _, e := range exps {
		chained := false
		for _, s := range e.Series {
			if strings.HasPrefix(s.Label, "ChainedH24") {
				chained = true
			}
			for _, up := range UpdatePcts {
				if s.Mops[up] <= 0 {
					t.Fatalf("grow=%d %s up=%d: no throughput", e.GrowAtPct, s.Label, up)
				}
				if s.MemoryBytes[up] == 0 {
					t.Fatalf("grow=%d %s up=%d: no memory", e.GrowAtPct, s.Label, up)
				}
			}
		}
		if chained != (e.GrowAtPct == 50) {
			t.Fatalf("grow=%d: chained presence = %v; the paper includes it only at 50%%", e.GrowAtPct, chained)
		}
	}
	var sb strings.Builder
	RenderFig5(&sb, exps)
	if !strings.Contains(sb.String(), "growing at 90% load factor") {
		t.Fatal("rendered Fig5 missing panels")
	}
}

func TestRunFig6Structure(t *testing.T) {
	opt := tinyOpts()
	res, err := RunFig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Capacities) != 3 {
		t.Fatalf("capacities = %v", res.Capacities)
	}
	for _, d := range dist.Kinds() {
		for _, lf := range HighLoadFactors {
			for ci := range res.Capacities {
				ins := res.Insert[d][lf][ci]
				if ins.Label == "" || ins.Mops <= 0 {
					t.Fatalf("%s lf=%d cap#%d: empty insert winner", d, lf, ci)
				}
				for mi := range Mixes {
					c := res.Lookup[d][lf][ci][mi]
					if c.Label == "" || c.Mops <= 0 {
						t.Fatalf("%s lf=%d cap#%d mix#%d: empty lookup winner", d, lf, ci, mi)
					}
					if strings.HasPrefix(c.Label, "ChainedH24") && lf > 50 {
						t.Fatalf("chained won a cell above its memory budget: %s lf=%d", c.Label, lf)
					}
				}
			}
		}
	}
	var sb strings.Builder
	RenderFig6(&sb, res)
	if !strings.Contains(sb.String(), "best performers") {
		t.Fatal("rendered Fig6 malformed")
	}
}

func TestRunFig7Structure(t *testing.T) {
	exps, err := RunFig7(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 || exps[0].Dist != dist.Sparse {
		t.Fatalf("Fig7 panels = %+v, want one sparse panel", exps)
	}
	series := exps[0].Series
	want := []string{"LPAoSMult", "LPAoSMultSIMD", "LPSoAMult", "LPSoAMultSIMD"}
	if len(series) != len(want) {
		t.Fatalf("%d series, want %d", len(series), len(want))
	}
	for i, s := range series {
		if s.Label != want[i] {
			t.Fatalf("series %d = %s, want %s", i, s.Label, want[i])
		}
		for _, lf := range HighLoadFactors {
			if s.InsertMops[lf] <= 0 {
				t.Fatalf("%s lf=%d: no insert throughput", s.Label, lf)
			}
			for _, u := range Mixes {
				if s.LookupMops[lf][u] <= 0 {
					t.Fatalf("%s lf=%d u=%d: no lookup throughput", s.Label, lf, u)
				}
			}
		}
	}
	var sb strings.Builder
	RenderFig7(&sb, exps)
	out := sb.String()
	prev := 0
	for _, w := range want {
		i := strings.Index(out[prev:], "\n"+w+" ")
		if i < 0 {
			t.Fatalf("rendered Fig7 missing %s after offset %d (series out of order?)", w, prev)
		}
		prev += i + 1
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Capacity != CapacityMedium || o.RWInitial == 0 || o.RWOps == 0 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestFig6Contenders(t *testing.T) {
	if len(fig6Contenders(50)) != 5 {
		t.Fatal("50% should include ChainedH24")
	}
	if len(fig6Contenders(70)) != 4 {
		t.Fatal("70% should exclude ChainedH24")
	}
	for _, c := range fig6Contenders(90) {
		if c.family.Name() != "Mult" {
			t.Fatalf("Fig6 contender %s is not Mult", c.label())
		}
	}
}

func TestMultMurmurComposition(t *testing.T) {
	cs := multMurmur(table.SchemeLP, table.SchemeRH)
	if len(cs) != 4 {
		t.Fatalf("%d contenders", len(cs))
	}
	if cs[0].label() != "LPMult" || cs[1].label() != "LPMurmur" || cs[3].label() != "RHMurmur" {
		t.Fatalf("labels: %s %s %s %s", cs[0].label(), cs[1].label(), cs[2].label(), cs[3].label())
	}
}

func TestRunLayoutModel(t *testing.T) {
	points, err := RunLayoutModel(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(HighLoadFactors) {
		t.Fatalf("%d points", len(points))
	}
	prevProbes := 0.0
	for _, p := range points {
		if p.AvgProbes <= prevProbes {
			t.Fatalf("probe length not increasing with load factor: %+v", p)
		}
		prevProbes = p.AvgProbes
		if p.AvgAoSLines < p.AvgSoALines {
			t.Fatalf("AoS touched fewer lines than SoA at lf=%d", p.LoadFactorPct)
		}
		if p.LineRatio < 1 || p.LineRatio > 2 {
			t.Fatalf("line ratio %v outside (1,2]", p.LineRatio)
		}
	}
	// The paper's headline number: ratio ~1.85 at 90% (allow slack for the
	// tiny test capacity).
	last := points[len(points)-1]
	if last.LineRatio < 1.5 {
		t.Fatalf("90%% line ratio %v, want ~1.85", last.LineRatio)
	}
	var sb strings.Builder
	RenderLayoutModel(&sb, points)
	if !strings.Contains(sb.String(), "1.85") {
		t.Fatal("render malformed")
	}
}

func TestAllFamiliesSweep(t *testing.T) {
	opt := tinyOpts()
	opt.AllFamilies = true
	exps, err := RunFig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 3 schemes x 4 families per distribution panel.
	if got := len(exps[0].Series); got != 12 {
		t.Fatalf("AllFamilies fig2 has %d series, want 12", got)
	}
	seen := map[string]bool{}
	for _, s := range exps[0].Series {
		seen[s.Label] = true
	}
	for _, want := range []string{"LPMult", "LPMultAdd", "LPTab", "LPMurmur"} {
		if !seen[want] {
			t.Fatalf("missing series %s in AllFamilies sweep", want)
		}
	}
}

func TestContendersFor(t *testing.T) {
	if got := (Options{}).contendersFor(table.SchemeLP); len(got) != 2 {
		t.Fatalf("default sweep has %d families", len(got))
	}
	if got := (Options{AllFamilies: true}).contendersFor(table.SchemeLP); len(got) != 4 {
		t.Fatalf("full sweep has %d families", len(got))
	}
}
