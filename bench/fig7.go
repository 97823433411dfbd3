package bench

import (
	"fmt"
	"io"
	"time"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

// Fig7Series is one curve of Figure 7: a layout/SIMD variant of LPMult
// across load factors and lookup mixes.
type Fig7Series struct {
	Label string
	// InsertMops maps load-factor percent -> build throughput.
	InsertMops map[int]float64
	// LookupMops maps load-factor percent -> unsuccessful percent ->
	// probe throughput.
	LookupMops map[int]map[int]float64
}

// fig7Variant is one of the four table variants one runner covers: AoS or
// SoA with scalar or vectorized probing. "SIMD" here means the portable
// 4-lane kernels of internal/vec — see README's "Regenerating the paper's
// figures".
type fig7Variant struct {
	label  string
	scheme table.Scheme
	simd   bool
}

var fig7Variants = []fig7Variant{
	{"LPAoSMult", table.SchemeLP, false},
	{"LPAoSMultSIMD", table.SchemeLP, true},
	{"LPSoAMult", table.SchemeLPSoA, false},
	{"LPSoAMultSIMD", table.SchemeLPSoA, true},
}

// build opens the variant's table and returns the put and get it is
// measured through: the scalar ones, or the LP schemes' GetVec/PutVec.
func (v fig7Variant) build(cfg table.Config) (func(k, v uint64) (bool, error), func(k uint64) (uint64, bool), table.Table, error) {
	m, err := table.New(v.scheme, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if !v.simd {
		return m.Put, m.Get, m, nil
	}
	vm, ok := m.(interface {
		GetVec(key uint64) (uint64, bool)
		PutVec(key, val uint64) (bool, error)
	})
	if !ok {
		return nil, nil, nil, fmt.Errorf("bench: fig7 %s has no vectorized probes", v.scheme)
	}
	return vm.PutVec, vm.GetVec, m, nil
}

// RunFig7 regenerates Figure 7: the effect of table layout (AoS vs SoA)
// and vectorized probing on LPMult over sparse keys at load factors
// 50/70/90%.
func RunFig7(opt Options) ([]*Fig7Series, error) {
	opt = opt.withDefaults()
	gen := dist.New(dist.Sparse, opt.Seed)
	var out []*Fig7Series
	for _, v := range fig7Variants {
		out = append(out, &Fig7Series{
			Label:      v.label,
			InsertMops: map[int]float64{},
			LookupMops: map[int]map[int]float64{},
		})
	}
	for _, lf := range HighLoadFactors {
		n := opt.Capacity * lf / 100
		insertKeys := dist.Shuffled(gen.Keys(n), opt.Seed+1)
		lookups := opt.Lookups
		if lookups <= 0 {
			lookups = n
		}
		for vi, v := range fig7Variants {
			out[vi].LookupMops[lf] = map[int]float64{}
			for r := 0; r < opt.Repeats; r++ {
				put, get, m, err := v.build(table.Config{
					InitialCapacity: opt.Capacity,
					MaxLoadFactor:   0,
					Family:          hashfn.MultFamily{},
					Seed:            opt.Seed + uint64(r)*0x9e3779b9,
				})
				if err != nil {
					return nil, err
				}
				start := time.Now()
				for i, k := range insertKeys {
					if _, err := put(k, uint64(i)); err != nil {
						return nil, fmt.Errorf("bench: fig7 %s lf=%d: %w", v.label, lf, err)
					}
				}
				insertSecs := time.Since(start).Seconds()
				if m.Len() != n {
					return nil, fmt.Errorf("bench: fig7 %s lf=%d built %d entries, want %d", v.label, lf, m.Len(), n)
				}
				out[vi].InsertMops[lf] += float64(n) / 1e6 / insertSecs
				for _, u := range Mixes {
					miss := lookups * u / 100
					hit := lookups - miss
					probes := make([]uint64, 0, lookups)
					for i := 0; i < hit; i++ {
						probes = append(probes, insertKeys[i%len(insertKeys)])
					}
					probes = append(probes, gen.AbsentKeys(n, miss)...)
					probes = dist.Shuffled(probes, opt.Seed+uint64(u)+2)
					hits := 0
					var sink uint64
					start = time.Now()
					for _, k := range probes {
						if val, ok := get(k); ok {
							hits++
							sink ^= val
						}
					}
					secs := time.Since(start).Seconds()
					_ = sink
					if hits != hit {
						return nil, fmt.Errorf("bench: fig7 %s lf=%d u=%d: %d hits, want %d", v.label, lf, u, hits, hit)
					}
					out[vi].LookupMops[lf][u] += float64(len(probes)) / 1e6 / secs
				}
			}
			out[vi].InsertMops[lf] /= float64(opt.Repeats)
			for _, u := range Mixes {
				out[vi].LookupMops[lf][u] /= float64(opt.Repeats)
			}
			opt.logf("fig7 %-16s lf=%2d%%: insert %6.1f Mops, lookups %v",
				v.label, lf, out[vi].InsertMops[lf], out[vi].LookupMops[lf])
		}
	}
	return out, nil
}

// RenderFig7 prints the Figure 7 panels.
func RenderFig7(w io.Writer, series []*Fig7Series) {
	fmt.Fprintln(w, "=== Figure 7: layout (AoS vs SoA) and vectorized probing, LPMult, sparse ===")
	fmt.Fprintf(w, "%-18s", "Insertions [Mops]")
	for _, lf := range HighLoadFactors {
		fmt.Fprintf(w, "  lf=%2d%%", lf)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-18s", s.Label)
		for _, lf := range HighLoadFactors {
			fmt.Fprintf(w, "  %6.1f", s.InsertMops[lf])
		}
		fmt.Fprintln(w)
	}
	for _, lf := range HighLoadFactors {
		fmt.Fprintf(w, "\nLookups at %d%% load factor [Mops], by %% unsuccessful\n", lf)
		fmt.Fprintf(w, "%-18s", "")
		for _, u := range Mixes {
			fmt.Fprintf(w, "  u=%3d%%", u)
		}
		fmt.Fprintln(w)
		for _, s := range series {
			fmt.Fprintf(w, "%-18s", s.Label)
			for _, u := range Mixes {
				fmt.Fprintf(w, "  %6.1f", s.LookupMops[lf][u])
			}
			fmt.Fprintln(w)
		}
	}
}
