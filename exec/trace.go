package exec

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"repro/obs"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvTask is a completed task execution: Start..End spans the
	// callback (one Chrome "complete" slice per task).
	EvTask EventKind = iota
	// EvClaim marks a worker claiming a task (morsel) from the shared
	// cursor.
	EvClaim
	// EvSteal marks a task executed by a non-home worker.
	EvSteal
	// EvError marks a task that returned an error (or panicked).
	EvError
	// EvCancel marks the cancellation observation that stopped a run.
	EvCancel
)

func (k EventKind) String() string {
	switch k {
	case EvTask:
		return "task"
	case EvClaim:
		return "claim"
	case EvSteal:
		return "steal"
	case EvError:
		return "error"
	case EvCancel:
		return "cancel"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one scheduling event. Timestamps are obs.Now nanoseconds
// (process-epoch monotonic), so events from several pools — and shard
// migration timings — share one timeline. End is zero for instant
// events (everything but EvTask).
type Event struct {
	Kind   EventKind
	Worker int32
	Task   int32
	Start  int64
	End    int64
}

// traceSlot pairs an event with its publication flag: the writer fills
// ev, then releases the slot with done.Store(1); a dumper only reads
// slots whose done it has observed as 1, so a dump racing the recorder
// sees each event wholly or not at all.
type traceSlot struct {
	ev   Event
	done atomic.Uint32
}

// workerRing is one worker's slice of the trace: a claim cursor plus a
// fixed slot array. The cursor is padded onto its own cache line because
// concurrent submissions to one pool each run their own worker w, and
// several pools may share one Trace — so a ring can have several writers.
type workerRing struct {
	pos   atomic.Int64
	_     [cacheLinePad]byte
	slots []traceSlot
}

const cacheLinePad = 56 // 64-byte line minus the 8-byte cursor

// Trace is a fixed-capacity, allocation-free execution event ring: one
// ring per worker, recorded lock-free from the scheduling path and
// dumped on demand as Chrome trace JSON. Rings fill until full — once a
// worker's ring is full its further events are counted in Dropped
// rather than overwriting history, which keeps recording a single
// atomic claim and the dump race-free without wraparound tearing.
// Attach via Config.Trace; nil (the default) records nothing.
type Trace struct {
	rings   []workerRing
	dropped atomic.Uint64
}

// NewTrace returns a Trace with one ring per worker, each holding up to
// perWorker events (minimums 1 and 64).
func NewTrace(workers, perWorker int) *Trace {
	if workers < 1 {
		workers = 1
	}
	if perWorker < 64 {
		perWorker = 64
	}
	t := &Trace{rings: make([]workerRing, workers)}
	for i := range t.rings {
		t.rings[i].slots = make([]traceSlot, perWorker)
	}
	return t
}

// record appends ev to worker's ring, or counts a drop when full.
func (t *Trace) record(worker int, ev Event) {
	if worker < 0 || worker >= len(t.rings) {
		worker = 0
	}
	r := &t.rings[worker]
	i := r.pos.Add(1) - 1
	if i >= int64(len(r.slots)) {
		t.dropped.Add(1)
		return
	}
	s := &r.slots[i]
	s.ev = ev
	s.done.Store(1)
}

// Dropped returns the number of events discarded because a ring was
// full. A non-zero value means the trace shows a prefix of the run;
// size perWorker up (or trace a shorter window) to capture it all.
func (t *Trace) Dropped() uint64 { return t.dropped.Load() }

// Events returns a snapshot of every fully recorded event, ordered by
// start time (ties broken by worker then task) — safe to call while the
// pool is still recording.
func (t *Trace) Events() []Event {
	var out []Event
	for w := range t.rings {
		r := &t.rings[w]
		n := r.pos.Load()
		if n > int64(len(r.slots)) {
			n = int64(len(r.slots))
		}
		for i := int64(0); i < n; i++ {
			s := &r.slots[i]
			if s.done.Load() == 1 {
				out = append(out, s.ev)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Task < b.Task
	})
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, also loadable at ui.perfetto.dev): "X" complete
// slices for tasks, "i" instants for claims/steals/errors/cancels, "M"
// metadata naming the process and worker threads. Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeJSON renders the trace snapshot as a Chrome trace-event
// JSON object ({"traceEvents": [...]}) on w. Load the output in
// chrome://tracing or ui.perfetto.dev: each worker renders as a thread,
// tasks as slices, scheduling events as instants.
func (t *Trace) WriteChromeJSON(w io.Writer) error {
	const pid = 1
	evs := t.Events()
	out := make([]chromeEvent, 0, len(evs)+len(t.rings)+1)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "exec.Pool"},
	})
	for wk := range t.rings {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: wk,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", wk)},
		})
	}
	for _, ev := range evs {
		ce := chromeEvent{
			Name: ev.Kind.String(),
			Pid:  pid,
			Tid:  int(ev.Worker),
			Ts:   float64(ev.Start) / 1e3,
			Args: map[string]any{"task": ev.Task},
		}
		if ev.Kind == EvTask {
			ce.Ph = "X"
			ce.Name = fmt.Sprintf("task %d", ev.Task)
			dur := float64(ev.End-ev.Start) / 1e3
			ce.Dur = &dur
		} else {
			ce.Ph = "i"
			ce.S = "t" // thread-scoped instant
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}

// taskEvent records a completed task slice plus its derived instants.
func (t *Trace) taskEvent(worker, task int, start, end int64, steal bool, failed bool) {
	t.record(worker, Event{Kind: EvTask, Worker: int32(worker), Task: int32(task), Start: start, End: end})
	if steal {
		t.record(worker, Event{Kind: EvSteal, Worker: int32(worker), Task: int32(task), Start: start})
	}
	if failed {
		t.record(worker, Event{Kind: EvError, Worker: int32(worker), Task: int32(task), Start: end})
	}
}

// now is obs.Now, aliased so exec's hot path reads tidily.
func now() int64 { return obs.Now() }
