package table

// quadraticProbing is an open-addressing hash table with quadratic probing
// (§2.3 of the paper): the i-th probe lands at
//
//	h(k, i) = (h'(k) + c1*i + c2*i^2) mod l, with c1 = c2 = 1/2,
//
// i.e. the probe offsets are the triangular numbers 0, 1, 3, 6, 10, ...
// With a power-of-two capacity this particular parameterization is a
// permutation of the slots: as long as a free slot exists, it will be
// found. Compared to linear probing, QP trades some locality (after the
// third probe every step lands on a new cache line) for a reduced tendency
// to primary clustering; it still exhibits secondary clustering because two
// keys that collide on their first probe share their entire probe sequence.
//
// Deletion places a tombstone unconditionally: the "is the next slot
// occupied" shortcut of the optimized LP strategy has no analogue here
// because probe sequences through a slot are not physically contiguous.
// Inserts recycle tombstones, and tombstone pressure triggers an in-place
// rehash when growth is enabled.
//
// The scheme is an instantiation of the policy-driven probe kernel
// (kernel.go): the triangular quadratic sequence over the AoS layout with
// no displacement.
type quadraticProbing struct {
	kern
}

// newQuadraticProbing returns an empty quadratic-probing table configured
// by cfg.
func newQuadraticProbing(cfg Config) *quadraticProbing {
	t := &quadraticProbing{}
	t.setup(cfg, "QP", aosLayout{}, quadSeq{}, noDisplace{})
	return t
}
