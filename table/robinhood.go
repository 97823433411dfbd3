package table

// robinHood is the paper's tuned Robin Hood hashing on linear probing
// (§2.4). It keeps the probe sequences of linear probing but resolves every
// collision in favour of the "poorer" key — the one farther from its
// optimal slot — which minimizes the variance of displacements without
// changing their sum. The established ordering buys a cheap early-abort
// criterion for unsuccessful lookups: while probing for k at distance d, an
// entry whose own displacement is smaller than d proves k is absent
// (k would have robbed that slot during insertion).
//
// Recomputing the probed entry's displacement on every step is what the
// paper found prohibitively expensive; their tuned variant — reproduced
// here — performs the check once per cache line (every 4th slot with
// 16-byte AoS slots), which balances the overhead on successful probes
// against early termination of unsuccessful ones.
//
// Deletion uses partial cluster rehash rather than tombstones (tombstones
// in RH would need to carry the deleted entry's displacement to preserve
// the ordering): the hole is filled by shifting the remainder of the
// cluster back one slot, which re-establishes every invariant and is
// exactly the result of rehashing the cluster tail in place.
//
// The scheme is an instantiation of the policy-driven probe kernel
// (kernel.go): the linear probe sequence over the AoS layout with Robin
// Hood displacement — i.e. exactly linearProbing with the displacement
// dimension flipped, which is the paper's own description of the scheme.
type robinHood struct {
	kern
}

// newRobinHood returns an empty Robin Hood table configured by cfg.
func newRobinHood(cfg Config) *robinHood {
	t := &robinHood{}
	t.setup(cfg, "RH", aosLayout{}, linearSeq{}, robinDisplace{})
	return t
}
