package shard

// The wait-free read protocol, shared scaffolding. The optimistic
// (seqlock) implementations of readGet, readRange and readSnapshot live
// in read_optimistic.go; race-detector builds substitute the locked
// slow path below, readLocked, for every read (read_racedetector.go): a
// seqlock reader's probes are deliberate data races — loads of table
// slots a writer may be storing to, made safe only retroactively by
// sequence validation — and the detector would (correctly, by its
// rules) report every one of them. The slow path IS the optimistic
// path's fallback, so race builds exercise real code, not a stub.

// readMaxRetries bounds the optimistic attempts a single-key or observer
// read makes before falling back to the writer lock: enough to ride out a
// few short writer windows, small enough that a reader stuck behind a long
// batch mutation queues on the lock instead of spinning. Progress is
// therefore never lost — the fallback serializes behind the writer and
// always completes.
const readMaxRetries = 8

// A staged range pays for a torn probe with every key it looked up, so its
// budget is readRangeDiscards probes, not readMaxRetries (readRange).
const readRangeDiscards = 2

// How long a waiter waits before it sleeps on the mutex, two ways:
//
//   - lockYieldNanos bounds how long a writer yields its P between tries of
//     a held shard's lock (acquire, which the locked read fallbacks use
//     too). The spin-then-block rule (Karlin et al., SOSP '91) sizes a
//     watch by what a park costs, and a park here costs a halted vCPU's
//     wake-up, not a context switch: timed around the mutex on rw_resize's
//     two writers (a 2-vCPU KVM guest, 4 rounds), a round parked a writer
//     414–679 times for 140–197 ms in all, the parks lasting p50 94–102 µs,
//     p90 172–386 µs, p99 4.35–4.52 ms and at most 5.9–15.1 ms, while most
//     holds last tens of µs. A waiter with nothing else to run gets its P
//     straight back from a yield, and its loop slows a holder that shares
//     its core less than a 5 µs watch did (BenchmarkHolderBesideWaiter), so
//     the bound only has to cover the engine's longest hold — a batch range
//     that hosts a migration, p99 ≈ 4.4 ms — with room to spare. Waits past
//     it are rare and long enough that a park is cheap beside them.
//   - windowWatchNanos, about one batch hold, bounds a batched read's watch
//     of an open window (readRange). A reader that gives up reads its range
//     under the lock, holding writers off for the whole of it, so it waits
//     the window out instead: with readers on a 5 µs bound, rw_resize's p90
//     rose 40–130%.
const (
	lockYieldNanos   = 10_000_000
	windowWatchNanos = 40_000
)

// readLocked runs fn against the shard's view under the writer lock: the
// fallback of every optimistic read (readGet, readRange, readSnapshot) and
// the race build's read path. It takes the lock without opening a seqlock
// window — it mutates nothing, and other optimistic readers must keep
// validating successfully while it holds the lock.
func readLocked(s *shardState, fn func(v *view)) {
	s.acquire()
	fn(s.view.Load())
	s.mu.Unlock()
}

// readAccount records a read that discarded probes (and possibly fell
// back). Off the hot path by construction — validated first-attempt reads
// never call it.
func (e *Engine) readAccount(s *shardState, retries uint64, fellBack bool) {
	e.readRetries.Add(s.idx, retries)
	if fellBack {
		e.readFallbacks.Inc(s.idx)
	}
}
