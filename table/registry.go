package table

import "fmt"

// Scheme identifies one of the hashing schemes in this package.
type Scheme string

// The schemes studied in the paper (§2), plus the SoA layout variant of LP
// used by the §7 layout study.
const (
	SchemeChained8  Scheme = "ChainedH8"
	SchemeChained24 Scheme = "ChainedH24"
	SchemeLP        Scheme = "LP"
	SchemeLPSoA     Scheme = "LPSoA"
	SchemeQP        Scheme = "QP"
	SchemeRH        Scheme = "RH"
	SchemeCuckooH4  Scheme = "CuckooH4"
)

// Schemes returns the paper's six schemes in presentation order (chained
// variants first, then open addressing). It deliberately omits the LPSoA
// layout variant, which only the §7 layout study plots; use AllSchemes for
// everything this package implements.
func Schemes() []Scheme {
	return []Scheme{
		SchemeChained8, SchemeChained24,
		SchemeLP, SchemeQP, SchemeRH, SchemeCuckooH4,
	}
}

// openAddressingSchemes returns the five open-addressing schemes: the
// paper's LP, QP, RH and CuckooH4 plus the LPSoA layout variant.
func openAddressingSchemes() []Scheme {
	return []Scheme{SchemeLP, SchemeLPSoA, SchemeQP, SchemeRH, SchemeCuckooH4}
}

// KernelSchemes returns the schemes served by the probe kernel
// (kernel.go), one per kernSchemes row, in presentation order: every
// open-addressing scheme except Cuckoo, whose bounded candidate set needs
// a structurally different core.
func KernelSchemes() []Scheme {
	var out []Scheme
	for _, s := range openAddressingSchemes() {
		if _, ok := kernSchemes[s]; ok {
			out = append(out, s)
		}
	}
	return out
}

// AllSchemes returns every scheme this package implements, in presentation
// order: the chained variants, then all open-addressing schemes including
// the LPSoA layout variant.
func AllSchemes() []Scheme {
	return append([]Scheme{SchemeChained8, SchemeChained24}, openAddressingSchemes()...)
}

// New constructs an empty table of the given scheme, or returns an error
// for an unknown scheme name or a MaxLoadFactor Open would reject. It is
// the one low-level constructor: Open builds on it, and
// shard.Config.NewTable, tests and analysis tools call it directly. Most
// callers want Open.
func New(s Scheme, cfg Config) (Table, error) {
	if err := checkMaxLoadFactor(cfg.MaxLoadFactor); err != nil {
		return nil, err
	}
	if _, ok := kernSchemes[s]; ok {
		return newKern(s, cfg), nil
	}
	switch s {
	case SchemeChained8, SchemeChained24:
		return newChained(s, cfg), nil
	case SchemeCuckooH4:
		return newCuckoo(cfg), nil
	}
	return nil, fmt.Errorf("table: unknown scheme %q", s)
}

// checkMaxLoadFactor rejects a growth threshold outside [0, 1), NaN
// included: at 1 or above growth could never trigger, and a negative one
// means nothing.
func checkMaxLoadFactor(f float64) error {
	if f < 0 {
		return fmt.Errorf("table: max load factor %v is negative; use 0 to disable growth explicitly", f)
	}
	if !(f < 1) {
		return fmt.Errorf("table: max load factor %v can never trigger growth; use a value in (0,1), or 0 to disable growth", f)
	}
	return nil
}
