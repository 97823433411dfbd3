// Package analysis is the repo's invariant suite: custom static
// analyzers that turn the architectural rules established by PRs 4–6
// from prose in CHANGES.md into compiler-checked facts. The suite runs
// in CI (and locally) through cmd/repolint, a `go vet -vettool`
// multichecker.
//
// # The invariants
//
//	rule                                        analyzer        why
//	----                                        --------        ---
//	all concurrency flows through exec/shard    nogoroutine     bounded fan-out, first-error, panic containment (PR 5)
//	typed errors matched via errors.Is/As,      errtaxonomy     the FullError -> DegradedError -> %w chain must stay
//	re-surfaced only with %w                                    inspectable end to end (PR 6)
//	unsafe only in table/policy.go              unsafeconfine   unsafe aliasing stays where checkptr/ASan and
//	                                                            FuzzColumnView and FuzzProbeKernel exercise it
//	shard locks paired in-function; factory     lockdiscipline  incremental resize and degraded mode assume the
//	calls only via allocTable; no exec calls                    chokepoint and the lock ownership rules (PR 3/6)
//	under a shard lock
//	Config.Ctx threaded into exec.Config        ctxpropagate    accepted contexts must reach the pool, or the
//	                                                            work is uncancellable (PR 6)
//
// # Running
//
//	go build -o /tmp/repolint ./cmd/repolint
//	go vet -vettool=/tmp/repolint ./...
//
// or, equivalently, `go run ./cmd/repolint ./...` (the driver re-execs
// itself under go vet). Each analyzer is exercised by an analysistest
// fixture suite under testdata/src, with bad fixtures proving the
// analyzer fires and good fixtures pinning the allowed idioms.
//
// The framework types (Analyzer, Pass, Diagnostic) mirror
// golang.org/x/tools/go/analysis, reimplemented on the standard library
// because this module is dependency-free; if the x/tools dependency is
// ever adopted, the analyzers port by swapping the import.
package analysis
