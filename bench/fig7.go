package bench

import (
	"io"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

// fig7Contenders are Figure 7's two layouts of LPMult: AoS and SoA. The
// paper's AVX-2 series are not reproduced (see EXPERIMENTS.md).
var fig7Contenders = []contender{
	{scheme: table.SchemeLP, family: hashfn.MultFamily{}},
	{scheme: table.SchemeLPSoA, family: hashfn.MultFamily{}},
}

// RunFig7 regenerates Figure 7's layout comparison: AoS vs SoA linear
// probing with LPMult over sparse keys at load factors 50/70/90%. It is
// one WORM panel, the sparse one.
func RunFig7(opt Options) ([]WORMExperiment, error) {
	opt = opt.withDefaults()
	return runWORMFigure(opt, "fig7", []dist.Kind{dist.Sparse}, fig7Contenders, HighLoadFactors, nil)
}

// RenderFig7 prints the Figure 7 panel.
func RenderFig7(w io.Writer, exps []WORMExperiment) {
	renderWORM(w, "Figure 7: layout (AoS vs SoA), LPMult, sparse", exps, HighLoadFactors)
}
