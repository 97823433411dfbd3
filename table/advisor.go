package table

// The paper's Figure 8: the suggested decision graph that maps a workload
// description to a concrete ⟨hashing scheme, hash function⟩ choice.
// Open(WithWorkload(...)) walks it; ExampleRecommend prints a walk.
//
// The graph is reconstructed from Figure 8's nodes and the paper's inline
// conclusions (the figure's terminals are ChainedH24, LPMult, QPMult,
// RHMult and CH4Mult, all with Mult as the function — §5.2: "no hash table
// is the absolute best using Murmur"):
//
//   - Load factor < 50% (§5.1): "LPMult is the way to go if most queries
//     are successful (>= 50%), and ChainedH24 must be considered
//     otherwise."
//   - Write-heavy workloads (§6): "quadratic probing looks as the best
//     option in general"; chained and Cuckoo hashing "should be avoided
//     for write-heavy workloads". For a static build over densely
//     distributed keys, LPMult wins inserts instead (§5.2, Figure 4(a):
//     45M vs 35M inserts/second at 90% load factor).
//   - Read-mostly at high load factors (§5.2): "RH is always among the top
//     performers ... an excellent all-rounder unless the hash table is
//     expected to be very full, or the amount of unsuccessful queries is
//     rather large. In such cases, CuckooH4 and ChainedH24 would be better
//     options, respectively, if their slow insertion times are
//     acceptable." CuckooH4 clearly surpasses the probing schemes from
//     ~80% load factor on (§5.2); at very high unsuccessful-lookup rates
//     ChainedH24 wins but only fits the §4.5 memory budget up to ~50–70%
//     load factor.
//
// Every recommendation carries the path of decisions taken, so the choice
// is auditable against the paper.

import "fmt"

// Workload describes the anticipated usage of a hash table: the subset of
// the paper's seven dimensions that the *user* controls, the scheme and
// hash function being the two outputs of the decision graph.
type Workload struct {
	// LoadFactor is the expected operating load factor (0,1): entries
	// divided by the slots the memory budget allows.
	LoadFactor float64
	// UnsuccessfulPct is the expected percentage of lookups probing keys
	// that are absent (0–100).
	UnsuccessfulPct int
	// WriteHeavy indicates more writes (inserts+deletes) than reads.
	WriteHeavy bool
	// Dynamic indicates the table grows/shrinks over its lifetime (OLTP);
	// false means a static build-then-probe use (OLAP/WORM).
	Dynamic bool
	// Dense indicates densely distributed integer keys (e.g. generated
	// primary keys, [1:n] or an arithmetic progression).
	Dense bool
}

// Validate reports whether the workload's fields are in range.
func (w Workload) Validate() error {
	if !(w.LoadFactor > 0 && w.LoadFactor < 1) {
		return fmt.Errorf("table: workload load factor %v outside (0,1)", w.LoadFactor)
	}
	if w.UnsuccessfulPct < 0 || w.UnsuccessfulPct > 100 {
		return fmt.Errorf("table: workload unsuccessful-lookup percentage %d outside [0,100]", w.UnsuccessfulPct)
	}
	return nil
}

// Recommend walks the paper's Figure 8 decision graph for w and returns
// the recommended scheme together with the audit trail of decisions taken
// (the hash-function family is always Mult per Figure 8; §5.2: "no hash
// table is the absolute best using Murmur"). Open(WithWorkload) walks it;
// the one operator that opens its table that way is pipe.HashJoin's build.
func Recommend(w Workload) (Scheme, []string, error) {
	if err := w.Validate(); err != nil {
		return "", nil, err
	}
	var path []string
	trace := func(format string, args ...any) {
		path = append(path, fmt.Sprintf(format, args...))
	}

	if w.LoadFactor < 0.5 {
		trace("load factor %.0f%% < 50%%", w.LoadFactor*100)
		if w.UnsuccessfulPct <= 50 {
			trace("lookups mostly successful (%d%% unsuccessful <= 50%%) -> LPMult", w.UnsuccessfulPct)
			return SchemeLP, path, nil
		}
		trace("lookups mostly unsuccessful (%d%% > 50%%) -> ChainedH24", w.UnsuccessfulPct)
		return SchemeChained24, path, nil
	}
	trace("load factor %.0f%% >= 50%%", w.LoadFactor*100)

	if w.WriteHeavy {
		trace("writes > reads")
		if w.Dynamic {
			trace("dynamic (growing) table -> QPMult (best RW performer, §6)")
			return SchemeQP, path, nil
		}
		if w.Dense {
			trace("static build over dense keys -> LPMult (dense+Mult is LP's best case, §5.2)")
			return SchemeLP, path, nil
		}
		trace("static build, non-dense keys -> QPMult (best inserts at high load factors, §5.2)")
		return SchemeQP, path, nil
	}
	trace("reads >= writes")

	if w.UnsuccessfulPct > 50 {
		trace("unsuccessful lookups dominate (%d%% > 50%%)", w.UnsuccessfulPct)
		if w.LoadFactor >= 0.9 {
			trace("load factor >= 90%% -> CH4Mult (lookups insensitive to load factor and misses)")
			return SchemeCuckooH4, path, nil
		}
		if w.LoadFactor <= 0.7 {
			trace("load factor <= 70%% -> ChainedH24 (wins degenerate miss-heavy probes and fits the §4.5 budget)")
			return SchemeChained24, path, nil
		}
		trace("load factor in (70%%, 90%%) -> RHMult (early abort tames misses, up to 4x over LP)")
		return SchemeRH, path, nil
	}
	trace("lookups mostly successful (%d%% unsuccessful <= 50%%)", w.UnsuccessfulPct)

	if w.LoadFactor >= 0.8 {
		trace("table very full (load factor >= 80%%) -> CH4Mult (surpasses probing schemes from ~80%%, §5.2)")
		return SchemeCuckooH4, path, nil
	}
	if w.Dense {
		trace("dense keys at moderate load factor -> LPMult (approximate arithmetic progression, optimal locality)")
		return SchemeLP, path, nil
	}
	trace("general case -> RHMult (the paper's all-rounder: top performer in most cells of Figure 6)")
	return SchemeRH, path, nil
}
