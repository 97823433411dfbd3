package table

// linearProbing is an open-addressing hash table with linear probing in
// array-of-structs layout (§2.2 of the paper). It is the simplest probing
// scheme: on a collision the next slots are scanned circularly until a free
// one is found. Its strengths are minimal code complexity and perfectly
// sequential memory access; its weakness is primary clustering at high load
// factors.
//
// Deletion uses the paper's optimized tombstone strategy: a tombstone is
// placed only when it is needed to keep a cluster connected (i.e. when the
// slot following the deleted entry is occupied); otherwise the slot is
// simply cleared, and any tombstones immediately preceding a new cluster
// end are cleared as well. Inserts recycle tombstones after confirming the
// key is not already present.
//
// The scheme is an instantiation of the policy-driven probe kernel
// (kernel.go): the linear probe sequence over the AoS layout with no
// displacement, from which the scalar operations, batch walks, RMW
// primitives, iterators and diagnostics all derive.
type linearProbing struct {
	kern
}

// newLinearProbing returns an empty linear-probing table configured by cfg.
func newLinearProbing(cfg Config) *linearProbing {
	t := &linearProbing{}
	t.setup(cfg, "LP", aosLayout{}, linearSeq{}, noDisplace{})
	return t
}

// clusterLengths computes maximal circular runs of occupied slots.
func clusterLengths(n int, occupied func(int) bool) []int {
	var out []int
	// Find a starting empty slot to anchor circular runs.
	start := -1
	for i := 0; i < n; i++ {
		if !occupied(i) {
			start = i
			break
		}
	}
	if start == -1 {
		return []int{n} // completely full: one cluster
	}
	run := 0
	for off := 1; off <= n; off++ {
		i := (start + off) % n
		if occupied(i) {
			run++
		} else if run > 0 {
			out = append(out, run)
			run = 0
		}
	}
	if run > 0 {
		out = append(out, run)
	}
	return out
}
