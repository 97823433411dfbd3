package table

// linearProbingSoA is linear probing in struct-of-arrays layout (§7 of the
// paper): keys and values live in two separate, aligned arrays, like a
// column layout. Compared to the array-of-structs linearProbing:
//
//   - a successful probe must touch at least two cache lines (one in the
//     key array, one in the value array), which hurts short probe
//     sequences;
//   - long probe sequences scan only keys — half the bytes of AoS — which
//     helps at high load factors;
//   - densely packed keys make vectorized comparison natural, which is why
//     the paper's SIMD variant favours SoA (see GetVec in batch.go).
//
// Semantics are identical to linearProbing, including the optimized
// tombstone deletion: the two schemes are the same kernel instantiated
// over different layout policies (the §7 dimension made a type).
type linearProbingSoA struct {
	kern
}

// newLinearProbingSoA returns an empty SoA linear-probing table.
func newLinearProbingSoA(cfg Config) *linearProbingSoA {
	t := &linearProbingSoA{}
	t.setup(cfg, "LPSoA", soaLayout{}, linearSeq{}, noDisplace{})
	return t
}
