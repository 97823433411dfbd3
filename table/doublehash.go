package table

// doubleHashing is open addressing with double hashing: the i-th probe
// lands at
//
//	h(k, i) = (h1(k) + i*h2(k)) mod l,
//
// so two keys colliding on their first probe still diverge immediately —
// double hashing exhibits neither the primary clustering of LP nor the
// secondary clustering of QP, at the cost of giving up cache-line
// locality entirely (every probe after the first is a random jump).
//
// Both probe functions derive from the one 64-bit hash code the shared
// bulk-hash pass already computes: h1 from the high log2(l) bits (like
// every other scheme) and h2 from the low bits forced odd. Odd strides
// are coprime to the power-of-two capacity, so the probe sequence is a
// full permutation of the slots and the QP termination guarantee — a key
// is declared absent after l probes — carries over unchanged, including
// the ability to fill the table to 100% occupancy.
//
// Deletion places a tombstone unconditionally, as for QP: non-contiguous
// probe sequences have no cluster-connectivity shortcut.
//
// The paper studies LP, QP and RH as its open-addressing schemes; DH is
// this reproduction's extension proving the kernel's policy surface. The
// entire scheme is the dhSeq probe policy (policy.go) — scalar
// operations, the group-interleaved batch walks, the single-probe RMW
// primitives, iterators, Stats and the differential/property/fuzz suites
// all come from the shared kernel. It is deliberately excluded from the
// Figure 8 decision graph (Recommend), which reproduces the paper's
// schemes only.
type doubleHashing struct {
	kern
}

// newDoubleHashing returns an empty double-hashing table configured by
// cfg.
func newDoubleHashing(cfg Config) *doubleHashing {
	t := &doubleHashing{}
	t.setup(cfg, "DH", aosLayout{}, dhSeq{}, noDisplace{})
	return t
}
