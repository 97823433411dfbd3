package bench

import (
	"fmt"
	"io"

	"repro/dist"
	"repro/hashfn"
	"repro/stats"
	"repro/table"
)

// LayoutPoint is one row of the §7 cache-line analysis at a given load
// factor: measured unsuccessful-probe lengths and the cache lines an AoS
// vs an SoA layout touches, next to the paper's closed-form model.
type LayoutPoint struct {
	LoadFactorPct int

	// Measured averages over the probe trace.
	AvgProbes   float64
	AvgAoSLines float64
	AvgSoALines float64
	LineRatio   float64 // AoS/SoA

	// The paper's model at this load factor: Knuth probes and
	// ceil(p/4) vs ceil(p/8).
	ModelProbes    float64
	ModelAoSLines  float64
	ModelSoALines  float64
	ModelLineRatio float64
}

// RunLayoutModel measures the §7 analysis: build LPMult over sparse keys at
// 50/70/90% load factor, trace the slots every unsuccessful probe touches,
// convert the trace to cache lines under both layouts, and compare with the
// ceil(d/4)-vs-ceil(d/8) model (the "factor ~1.85, not 2" argument).
func RunLayoutModel(opt Options) ([]LayoutPoint, error) {
	opt = opt.withDefaults()
	gen := dist.New(dist.Sparse, opt.Seed)
	var out []LayoutPoint
	for _, lf := range HighLoadFactors {
		n := opt.Capacity * lf / 100
		m, err := table.New(table.SchemeLP, table.Config{
			InitialCapacity: opt.Capacity,
			Family:          hashfn.MultFamily{},
			Seed:            opt.Seed,
		})
		if err != nil {
			return nil, err
		}
		for i, k := range dist.Shuffled(gen.Keys(n), opt.Seed+1) {
			if _, _, err := m.RMW(k, uint64(i), true, nil); err != nil {
				return nil, fmt.Errorf("bench: layout lf=%d: %w", lf, err)
			}
		}
		tracer := m.(interface { // every scheme traces its probes
			ProbeSlots(key uint64, visit func(slot int) bool)
		})
		probes := opt.Lookups
		if probes <= 0 {
			probes = n / 4
		}
		absent := gen.AbsentKeys(n, probes)
		var totalProbes, totalAoSLines, totalSoALines float64
		for _, k := range absent {
			prevAoSLine, prevSoALine := -1, -1
			tracer.ProbeSlots(k, func(slot int) bool {
				totalProbes++
				// AoS: 16-byte slots, 4 per 64-byte line.
				if l := slot / 4; l != prevAoSLine {
					totalAoSLines++
					prevAoSLine = l
				}
				// SoA: the probe scans the 8-byte key column only.
				if l := slot / 8; l != prevSoALine {
					totalSoALines++
					prevSoALine = l
				}
				return true
			})
		}
		p := LayoutPoint{LoadFactorPct: lf}
		np := float64(len(absent))
		p.AvgProbes = totalProbes / np
		p.AvgAoSLines = totalAoSLines / np
		p.AvgSoALines = totalSoALines / np
		p.LineRatio = totalAoSLines / totalSoALines
		alpha := float64(lf) / 100
		p.ModelProbes = stats.LPExpectedProbesUnsuccessful(alpha)
		p.ModelAoSLines = stats.CacheLinesAoS(p.ModelProbes)
		p.ModelSoALines = stats.CacheLinesSoA(p.ModelProbes)
		p.ModelLineRatio = p.ModelAoSLines / p.ModelSoALines
		out = append(out, p)
		opt.logf("layout lf=%2d%%: probes %.1f (model %.1f), lines AoS %.2f SoA %.2f ratio %.2f (model %.2f)",
			lf, p.AvgProbes, p.ModelProbes, p.AvgAoSLines, p.AvgSoALines, p.LineRatio, p.ModelLineRatio)
	}
	return out, nil
}

// RenderLayoutModel prints the measured-vs-model table.
func RenderLayoutModel(w io.Writer, points []LayoutPoint) {
	fmt.Fprintln(w, "=== §7 layout cache-line analysis: measured traces vs the paper's model ===")
	fmt.Fprintf(w, "%-6s %18s %18s %18s %12s\n",
		"lf", "probes (model)", "AoS lines (model)", "SoA lines (model)", "ratio(model)")
	for _, p := range points {
		fmt.Fprintf(w, "%-6s %8.1f (%6.1f) %8.2f (%7.0f) %8.2f (%7.0f) %5.2f (%4.2f)\n",
			fmt.Sprintf("%d%%", p.LoadFactorPct),
			p.AvgProbes, p.ModelProbes,
			p.AvgAoSLines, p.ModelAoSLines,
			p.AvgSoALines, p.ModelSoALines,
			p.LineRatio, p.ModelLineRatio)
	}
	fmt.Fprintln(w, "(the paper's point: at 90% the AoS/SoA line ratio is ~1.85, below the naive 2x)")
}
