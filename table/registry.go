package table

import "fmt"

// Scheme identifies one of the hashing schemes in this package.
type Scheme string

// The schemes studied in the paper (§2), plus the SoA layout variant of LP
// used by the §7 layout study and the double-hashing extension shipped as
// a probe-kernel policy (see DoubleHashing).
const (
	SchemeChained8  Scheme = "ChainedH8"
	SchemeChained24 Scheme = "ChainedH24"
	SchemeLP        Scheme = "LP"
	SchemeLPSoA     Scheme = "LPSoA"
	SchemeQP        Scheme = "QP"
	SchemeRH        Scheme = "RH"
	SchemeDH        Scheme = "DH"
	SchemeCuckooH4  Scheme = "CuckooH4"
)

// Schemes returns the paper's six schemes in presentation order (chained
// variants first, then open addressing). It deliberately omits the LPSoA
// layout variant and the DH extension, which the paper's figures do not
// plot; use AllSchemes for everything this package implements.
func Schemes() []Scheme {
	return []Scheme{
		SchemeChained8, SchemeChained24,
		SchemeLP, SchemeQP, SchemeRH, SchemeCuckooH4,
	}
}

// OpenAddressingSchemes returns the six open-addressing schemes: the
// paper's LP, QP, RH and CuckooH4 plus the LPSoA layout variant and the
// DH extension.
func OpenAddressingSchemes() []Scheme {
	return []Scheme{SchemeLP, SchemeLPSoA, SchemeQP, SchemeRH, SchemeDH, SchemeCuckooH4}
}

// KernelSchemes returns the schemes served by the policy-driven probe
// kernel (kernel.go) — every open-addressing scheme except Cuckoo, whose
// bounded candidate set needs a structurally different core.
func KernelSchemes() []Scheme {
	return []Scheme{SchemeLP, SchemeLPSoA, SchemeQP, SchemeRH, SchemeDH}
}

// AllSchemes returns every scheme this package implements, in presentation
// order: the chained variants, then all open-addressing schemes including
// the LPSoA layout variant and the DH extension.
func AllSchemes() []Scheme {
	return append([]Scheme{SchemeChained8, SchemeChained24}, OpenAddressingSchemes()...)
}

// sharedBuilder is the probe kernel as Handle.PutIfAbsentBatch sees it.
type sharedBuilder interface {
	sharedBuild() bool
	putIfAbsentBatch(keys, vals []uint64) (inserted int, err error)
}

// SharedBuild reports whether goroutines may share Handle.PutIfAbsentBatch
// on one growth-disabled single table of the scheme, which the table itself
// answers: the kernel's schemes that never displace a resident entry. RH,
// Cuckoo and chained move or allocate on insert; share them WithPartitions.
func (s Scheme) SharedBuild() bool {
	t, _ := New(s, Config{})
	b, ok := t.(sharedBuilder)
	return ok && b.sharedBuild()
}

// New constructs an empty table of the given scheme. It returns an error
// for unknown scheme names. The result carries the full unified Table
// operation set; most callers want the workload-aware Open façade instead.
func New(s Scheme, cfg Config) (Table, error) {
	switch s {
	case SchemeChained8:
		return NewChained8(cfg), nil
	case SchemeChained24:
		return NewChained24(cfg), nil
	case SchemeLP:
		return NewLinearProbing(cfg), nil
	case SchemeLPSoA:
		return NewLinearProbingSoA(cfg), nil
	case SchemeQP:
		return NewQuadraticProbing(cfg), nil
	case SchemeRH:
		return NewRobinHood(cfg), nil
	case SchemeDH:
		return NewDoubleHashing(cfg), nil
	case SchemeCuckooH4:
		return NewCuckoo(cfg), nil
	}
	return nil, fmt.Errorf("table: unknown scheme %q", s)
}

// MustNew is New that panics on error, for tests and static configuration.
func MustNew(s Scheme, cfg Config) Table {
	m, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return m
}
