// Package exec is the repo's one morsel-driven parallel execution core.
//
// Every parallel operator above the table layer — pipe's scans, join
// phases and group-bys, the sharded engine's parallel open,
// workload.RunChaos — schedules its work here rather than with ad-hoc
// goroutine fan-out: one scheduling core, the way morsel-driven query
// execution (Leis et al., SIGMOD 2014) structures parallelism: a bounded
// pool of workers, work carved into cache-friendly morsels (index
// ranges), and idle workers claiming the next morsel from a shared
// cursor — dynamic self-scheduling, so a worker that finishes early
// steals the remaining morsels of a slower sibling's input instead of
// going idle.
//
// The building blocks:
//
//   - Config sizes everything from one place: Workers (default
//     runtime.GOMAXPROCS) bounds the fan-out, MorselSize (default
//     DefaultMorselSize) sets the range granularity, Ctx cancels
//     everything scheduled on the pool.
//   - Pool owns the worker goroutines. ForEach schedules discrete tasks
//     (e.g. one per partition), ForMorsels carves an index range [0, n)
//     into morsels; both propagate the first error and stop scheduling
//     further work once a task fails; Config.Ctx cancels them through the
//     same claim cursor.
//   - Locals threads a per-worker accumulator through the morsels a worker
//     claims — the pre-aggregation pattern — and returns the used
//     accumulators in worker order. RunTasks is ForEach on a transient pool.
//
// Failure is a first-class input: a cancelled context stops the claim
// cursor exactly like a task error does; a panicking task is recovered
// and returned as a typed *PanicError instead of crashing the process;
// concurrent task errors beyond the first are counted on the returned
// error (*SuppressedError) rather than dropped.
//
// A Pool is safe for concurrent use by multiple goroutines; the task
// callbacks must not call back into the same pool (a worker executing a
// nested submit could deadlock waiting for itself).
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// DefaultMorselSize is the morsel granularity when Config.MorselSize is
// zero: 4096 keys (32 KiB of key column) — small enough that a morsel's
// working set is cache-resident and the pool load-balances skewed costs,
// large enough that the shared-cursor claim is amortized over thousands
// of rows.
const DefaultMorselSize = 4096

// Config sizes the execution core. The zero value means "one worker per
// CPU, default morsels, no cancellation".
type Config struct {
	// Workers bounds the number of concurrently executing tasks (default
	// runtime.GOMAXPROCS(0)). Parallel operators accept this instead of
	// spawning one goroutine per partition: the fan-out stays bounded by
	// the machine, not by the data.
	Workers int
	// MorselSize is the number of consecutive indexes per morsel in
	// ForMorsels/Locals (default DefaultMorselSize).
	MorselSize int
	// Ctx, when non-nil, is the pool's context: every submission
	// (ForEach, ForMorsels, Locals) is cancelled when Ctx is.
	// Cancellation stops the claim cursor exactly like a task error —
	// running tasks finish, unclaimed tasks never start — and the
	// context's error is returned.
	Ctx context.Context
	// Metrics, when non-nil, receives pool telemetry (task and steal
	// counts, queue-wait and task latency, per-worker busy time) from
	// the scheduling path. Nil — the default — keeps the path free of
	// instrumentation; the hooks are nil-guarded, not compiled out.
	Metrics *PoolMetrics
	// Trace, when non-nil, receives per-worker scheduling events (task
	// begin/end, morsel claims, steals, errors, cancellations) into a
	// fixed-capacity lock-free ring, dumpable as Chrome trace JSON.
	Trace *Trace
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MorselSize < 1 {
		c.MorselSize = DefaultMorselSize
	}
	return c
}

// Pool is a bounded set of worker goroutines executing tasks. Construct
// with NewPool; Close releases the workers (and is required — an unclosed
// pool leaks its goroutines). The zero value is not usable.
type Pool struct {
	workers int
	morsel  int
	ctx     context.Context
	metrics *PoolMetrics
	trace   *Trace
	tasks   chan *run
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// NewPool starts cfg.Workers worker goroutines. Callers must Close the
// pool when done with it.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		workers: cfg.Workers,
		morsel:  cfg.MorselSize,
		ctx:     cfg.Ctx,
		metrics: cfg.Metrics,
		trace:   cfg.Trace,
		tasks:   make(chan *run),
	}
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go func(w int) {
			defer p.wg.Done()
			for r := range p.tasks {
				r.do(w)
				r.wg.Done()
			}
		}(w)
	}
	return p
}

// Workers returns the pool's worker count. Worker indexes passed to task
// callbacks are always in [0, Workers()).
func (p *Pool) Workers() int { return p.workers }

// MorselSize returns the pool's morsel granularity.
func (p *Pool) MorselSize() int { return p.morsel }

// Close shuts the workers down and waits until every worker goroutine
// has exited. Close is idempotent: additional calls wait for the same
// shutdown instead of panicking. Submitting work after Close panics.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.tasks)
	}
	p.wg.Wait()
}

// run is one scheduled batch of tasks: a shared claim cursor (the
// work-stealing hand-off — idle workers claim the next unclaimed task)
// plus first-error state.
type run struct {
	n          int
	workers    int
	fn         func(worker, task int) error
	ctx        context.Context
	metrics    *PoolMetrics
	trace      *Trace
	submit     int64 // obs.Now at submission; 0 when uninstrumented
	cursor     atomic.Int64
	failed     atomic.Bool
	err        error
	suppressed atomic.Int64
	wg         sync.WaitGroup
}

// fail records err under the first-error convention: the first failure
// wins the return slot; concurrent losers are counted so the caller can
// see on the returned *SuppressedError that further errors existed.
func (r *run) fail(err error) {
	if r.failed.CompareAndSwap(false, true) {
		r.err = err
		return
	}
	r.suppressed.Add(1)
}

// cancel records a context cancellation. Unlike fail it never counts as
// a suppressed error: every worker observes the same cancellation, and
// it only claims the return slot when no task error beat it there. The
// observation that wins the slot is the one counted and traced — one
// cancel event per cancelled submission, not one per worker.
func (r *run) cancel(worker int, err error) {
	if r.failed.CompareAndSwap(false, true) {
		r.err = err
		r.noteCancel(worker)
	}
}

// noteCancel records a winning cancellation observation on the attached
// metrics and trace (both nil-guarded).
func (r *run) noteCancel(worker int) {
	if r.metrics != nil {
		r.metrics.Cancels.Inc(worker)
	}
	if r.trace != nil {
		r.trace.record(worker, Event{Kind: EvCancel, Worker: int32(worker), Start: now()})
	}
}

// do claims and executes tasks until the cursor is exhausted, a task
// has failed, or the run's context is cancelled.
func (r *run) do(worker int) {
	for !r.failed.Load() {
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				r.cancel(worker, err)
				return
			}
		}
		t := int(r.cursor.Add(1)) - 1
		if t >= r.n {
			return
		}
		if r.trace != nil {
			r.trace.record(worker, Event{Kind: EvClaim, Worker: int32(worker), Task: int32(t), Start: now()})
		}
		if err := r.execute(worker, t); err != nil {
			r.fail(err)
			return
		}
	}
}

// execute runs one task through invoke, recording telemetry around it
// when the run is instrumented. The uninstrumented path is a single nil
// check on top of invoke — no clock reads, no atomics.
func (r *run) execute(worker, task int) error {
	m, tr := r.metrics, r.trace
	if m == nil && tr == nil {
		return r.invoke(worker, task)
	}
	start := now()
	err := r.invoke(worker, task)
	end := now()
	// Home worker = task index modulo workers: the assignment a static
	// round-robin schedule would have made. Executing elsewhere means
	// the shared cursor let an idle worker steal it.
	steal := r.workers > 0 && worker != task%r.workers
	if m != nil {
		m.Tasks.Inc(worker)
		m.BusyNanos.Add(worker, uint64(end-start))
		m.TaskNanos.Record(worker, end-start)
		m.QueueWait.Record(worker, start-r.submit)
		if steal {
			m.Steals.Inc(worker)
		}
		if err != nil {
			var pe *PanicError
			if errors.As(err, &pe) {
				m.Panics.Inc(worker)
			} else {
				m.Errors.Inc(worker)
			}
		}
	}
	if tr != nil {
		tr.taskEvent(worker, task, start, end, steal, err != nil)
	}
	return err
}

// invoke runs one task with panic containment: a panicking callback is
// recovered into a typed *PanicError carrying the task index and stack,
// which then flows through the first-error convention instead of
// unwinding the worker and crashing the process. The armed fault
// injector can force a panic here (fault.Panic) — before the callback
// runs, so an injected panic never leaves a task half-applied.
func (r *run) invoke(worker, task int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Task: task, Value: v, Stack: debug.Stack()}
		}
	}()
	if fault.Should(fault.Panic) {
		panic(fmt.Errorf("%w (worker %d, task %d)", fault.ErrInjected, worker, task))
	}
	return r.fn(worker, task)
}

// result assembles the run's return error: the first error, wrapped in
// a *SuppressedError when concurrent tasks also failed.
func (r *run) result() error {
	if r.err != nil {
		if n := r.suppressed.Load(); n > 0 {
			return &SuppressedError{First: r.err, Count: int(n)}
		}
	}
	return r.err
}

// ForEach executes fn(worker, task) for every task in [0, tasks),
// spreading tasks over the pool's workers; an idle worker claims the next
// unstarted task, so uneven task costs balance automatically. The first
// error stops the scheduling of further tasks (tasks already running
// finish) and is returned; a panicking task surfaces as a *PanicError
// the same way. With one worker (or one task) fn runs inline on the
// calling goroutine, in task order — the serial oracle of the parallel
// schedule.
func (p *Pool) ForEach(tasks int, fn func(worker, task int) error) error {
	ctx := p.ctx
	if tasks <= 0 {
		return nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	r := &run{n: tasks, workers: p.workers, fn: fn, ctx: ctx, metrics: p.metrics, trace: p.trace}
	if r.metrics != nil || r.trace != nil {
		r.submit = now()
	}
	if r.metrics != nil {
		r.metrics.Submissions.Inc(0)
	}
	if p.workers == 1 || tasks == 1 {
		for t := 0; t < tasks; t++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					r.noteCancel(0)
					return err
				}
			}
			if err := r.execute(0, t); err != nil {
				return err
			}
		}
		return nil
	}
	k := p.workers
	if tasks < k {
		k = tasks
	}
	r.wg.Add(k)
	for i := 0; i < k; i++ {
		p.tasks <- r
	}
	r.wg.Wait()
	return r.result()
}

// morselsFor returns the number of size-sized morsels covering [0, n).
func morselsFor(n, size int) int {
	return (n + size - 1) / size
}

// ForMorsels carves the index range [0, n) into MorselSize-sized morsels
// and executes fn(worker, lo, hi) for each, with the same scheduling and
// error contract as ForEach. Indexes are covered exactly once; morsel
// boundaries are deterministic (only the worker assignment varies).
func (p *Pool) ForMorsels(n int, fn func(worker, lo, hi int) error) error {
	size := p.morsel
	return p.ForEach(morselsFor(n, size), func(w, t int) error {
		lo := t * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		return fn(w, lo, hi)
	})
}

// RunTasks executes fn once per task in [0, tasks) on a transient pool
// sized by cfg — the one-shot form for discrete units of work (one task
// per shard, one per client).
func RunTasks(cfg Config, tasks int, fn func(worker, task int) error) error {
	if tasks <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	if cfg.Workers > tasks {
		cfg.Workers = tasks
	}
	p := NewPool(cfg)
	defer p.Close()
	return p.ForEach(tasks, fn)
}

// Locals runs fn over the morsels of [0, n) with one lazily created
// accumulator per worker — the per-worker pre-aggregation pattern: each
// worker folds the morsels it claims into its own state with no
// synchronization, and the states that were actually used are returned in
// worker order for the caller's (sequential, deterministic) merge. init
// is called at most once per worker, from that worker.
func Locals[S any](p *Pool, n int, init func(worker int) (S, error), fn func(s S, worker, lo, hi int) error) ([]S, error) {
	states := make([]S, p.workers)
	used := make([]bool, p.workers)
	err := p.ForMorsels(n, func(w, lo, hi int) error {
		if !used[w] {
			s, err := init(w)
			if err != nil {
				return err
			}
			states[w], used[w] = s, true
		}
		return fn(states[w], w, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	out := make([]S, 0, p.workers)
	for w, u := range used {
		if u {
			out = append(out, states[w])
		}
	}
	return out, nil
}
