// Package fault provides deterministic, seed-driven fault injection for
// the exec/shard/table stack.
//
// Injection points are compiled into the production code paths but cost
// a single atomic pointer load while disarmed (the default), so they
// stay resident in release builds without measurable overhead. Arming
// installs a schedule:
//
//	fault.Arm(fault.Config{
//		Seed: 42,
//		Rates: func() (r [fault.NumKinds]float64) {
//			r[fault.Full] = 0.01  // refuse 1% of mutations as "full"
//			r[fault.Panic] = 0.05 // panic 5% of exec worker tasks
//			r[fault.Stall] = 0.02 // stretch 2% of migration steps
//			return
//		}(),
//	})
//	defer fault.Disarm()
//
// Decisions are deterministic: whether the n-th occurrence of a kind
// fires depends only on (seed, kind, n), never on goroutine scheduling.
// Under concurrency the assignment of occurrence indices to call sites
// races, so total fire counts per run are reproducible in aggregate
// (same number of occurrences, same number of fires for a serial
// replay) rather than per call site.
//
// The three kinds map onto the stack's failure contracts:
//
//   - Full    -> synthesized table refusal -> *table.FullError from
//     table.Handle, grow-on-refusal inside the shard engine.
//   - Panic   -> worker panic in exec -> contained *exec.PanicError.
//   - Stall   -> scheduler yields inside migration steps -> widened
//     race windows for -race chaos runs.
//
// The package is internal: it exists for bench.RunChaos, the
// FuzzFaultSchedule target, and robustness tests — not as a public
// chaos API.
package fault
