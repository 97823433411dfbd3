package exec

import "repro/obs"

// PoolMetrics is the pool's telemetry surface: striped counters and
// histograms recorded from the hot scheduling path with the worker index
// as the stripe hint, so concurrent workers never contend on a cache
// line. Attach one to a pool via Config.Metrics; a nil Config.Metrics
// (the default) keeps the scheduling path free of any instrumentation.
//
// All fields are constructed by NewPoolMetrics; the zero value is not
// usable. A PoolMetrics may be shared by several pools (e.g. transient
// RunTasks pools in a loop) — the counters simply accumulate across them.
type PoolMetrics struct {
	// Tasks counts executed tasks (morsels, for the morsel entry points).
	Tasks *obs.Counter
	// Steals counts tasks executed by a worker other than the task's
	// home worker (task index modulo workers) — the dynamic
	// self-scheduling at work. A high steal share on a balanced input is
	// normal; on a skewed input it is the pool absorbing the skew.
	Steals *obs.Counter
	// Errors counts tasks that returned a non-nil error (excluding
	// recovered panics, which Panics counts).
	Errors *obs.Counter
	// Panics counts tasks recovered into a *PanicError.
	Panics *obs.Counter
	// Cancels counts submissions stopped by context cancellation (at
	// most one per submission: the cancellation observation that claimed
	// the run's return slot).
	Cancels *obs.Counter
	// Submissions counts submissions (ForEach/ForMorsels/Locals calls).
	Submissions *obs.Counter
	// BusyNanos accumulates per-worker time spent inside task callbacks;
	// stripe w is worker w's exclusive slot, so ValueAt(w) reads one
	// worker's busy time and Value() the pool total.
	BusyNanos *obs.Counter
	// QueueWait is the submission-to-task-start latency distribution:
	// how long each task sat behind the claim cursor before a worker
	// picked it up.
	QueueWait *obs.Histogram
	// TaskNanos is the per-task execution latency distribution.
	TaskNanos *obs.Histogram
}

// NewPoolMetrics returns a PoolMetrics striped for the given worker
// count (minimum 1).
func NewPoolMetrics(workers int) *PoolMetrics {
	if workers < 1 {
		workers = 1
	}
	return &PoolMetrics{
		Tasks:       obs.NewCounter(workers),
		Steals:      obs.NewCounter(workers),
		Errors:      obs.NewCounter(workers),
		Panics:      obs.NewCounter(workers),
		Cancels:     obs.NewCounter(workers),
		Submissions: obs.NewCounter(1),
		BusyNanos:   obs.NewCounter(workers),
		QueueWait:   obs.NewHistogram(workers),
		TaskNanos:   obs.NewHistogram(workers),
	}
}

// Register files every metric with r under the conventional exec_*
// names, prefixed by prefix (use "" for the plain names, or e.g.
// "build_" to distinguish two pools in one registry).
func (m *PoolMetrics) Register(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+"exec_tasks_total", "tasks executed by the pool", m.Tasks)
	r.RegisterCounter(prefix+`exec_events_total{kind="steal"}`, "scheduling events by kind", m.Steals)
	r.RegisterCounter(prefix+`exec_events_total{kind="error"}`, "", m.Errors)
	r.RegisterCounter(prefix+`exec_events_total{kind="panic"}`, "", m.Panics)
	r.RegisterCounter(prefix+`exec_events_total{kind="cancel"}`, "", m.Cancels)
	r.RegisterCounter(prefix+"exec_submissions_total", "submissions to the pool", m.Submissions)
	r.RegisterCounter(prefix+"exec_busy_nanos_total", "nanoseconds workers spent inside task callbacks", m.BusyNanos)
	r.RegisterHistogram(prefix+"exec_queue_wait_nanos", "submission-to-task-start latency in nanoseconds", m.QueueWait)
	r.RegisterHistogram(prefix+"exec_task_nanos", "per-task execution latency in nanoseconds", m.TaskNanos)
}
