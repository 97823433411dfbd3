package bench

import (
	"io"

	"repro/dist"
	"repro/hashfn"
	"repro/table"
)

// fig7Contenders are Figure 7's four variants of LPMult: AoS or SoA layout,
// with scalar or vectorized probing. "SIMD" here means the kernel's
// portable 4-slot block compare (table/batch.go) — see README's
// "Regenerating the paper's figures".
var fig7Contenders = []contender{
	{scheme: table.SchemeLP, family: hashfn.MultFamily{}, name: "LPAoSMult"},
	{scheme: table.SchemeLP, family: hashfn.MultFamily{}, simd: true, name: "LPAoSMultSIMD"},
	{scheme: table.SchemeLPSoA, family: hashfn.MultFamily{}, name: "LPSoAMult"},
	{scheme: table.SchemeLPSoA, family: hashfn.MultFamily{}, simd: true, name: "LPSoAMultSIMD"},
}

// RunFig7 regenerates Figure 7: the effect of table layout (AoS vs SoA)
// and vectorized probing on LPMult over sparse keys at load factors
// 50/70/90%. It is one WORM panel, the sparse one.
func RunFig7(opt Options) ([]WORMExperiment, error) {
	opt = opt.withDefaults()
	return runWORMFigure(opt, "fig7", []dist.Kind{dist.Sparse}, fig7Contenders, HighLoadFactors, nil)
}

// RenderFig7 prints the Figure 7 panel.
func RenderFig7(w io.Writer, exps []WORMExperiment) {
	renderWORM(w, "Figure 7: layout (AoS vs SoA) and vectorized probing, LPMult, sparse", exps, HighLoadFactors)
}
