package main

// In-memory spans and per-call accounting. Every call the benchmark makes
// into a layer's public API goes through meter.record: it feeds the
// per-kind totals the per-layer metrics are computed from, the ns/row
// samples of the end-to-end percentiles, and — in a traced run — one span.
// Spans are kept in memory and written as Chrome trace JSON when the run
// ends; nothing is written while a round is being timed.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

var epoch = time.Now()

// now is the benchmark's one clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

// callKind names what one measured call did; with the meter's layer it
// forms the span name ("table.rh.get", "shard.put", "exec.morsel", ...).
type callKind uint8

const (
	kHash callKind = iota
	kPut
	kGet
	kDelete
	kGetOrPut
	kAdd
	kMorsel
	numKinds
)

var kindNames = [numKinds]string{"hash", "put", "get", "delete", "getorput", "add", "morsel"}

// span is one traced interval. parent indexes the main lane's spans (-1
// for a root); round is the ladder round the span belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	round      int32
}

// lane is one thread's span list; clients and pool workers each write
// their own, so recording needs no synchronization.
type lane struct {
	tid   int
	spans []span
}

// tracer owns the lanes of one traced run. Lane 0 is the benchmark's main
// thread and holds the rung and round spans every call span hangs off. A
// nil tracer records nothing, so the same loops run traced and untraced.
type tracer struct {
	lanes []*lane
}

func newTracer() *tracer { return &tracer{lanes: []*lane{{tid: 0}}} }

// lane returns the span list of thread tid, creating the lanes up to it.
// Call it before the threads start, not from them.
func (t *tracer) lane(tid int) *lane {
	if t == nil {
		return nil
	}
	for len(t.lanes) <= tid {
		t.lanes = append(t.lanes, &lane{tid: len(t.lanes)})
	}
	return t.lanes[tid]
}

// begin opens a span on the main lane and returns its index.
func (t *tracer) begin(name string, parent, round int32) int32 {
	if t == nil {
		return -1
	}
	l := t.lanes[0]
	l.spans = append(l.spans, span{name: name, start: now(), parent: parent, round: round})
	return int32(len(l.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.lanes[0].spans[id].end = now()
	}
}

// chromeEvent is one "complete" event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps every span as Chrome trace JSON (loads in chrome://tracing
// and Perfetto). Main-lane spans carry their index as args.id so a child's
// args.parent can be resolved.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("trace output directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace output: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "[")
	first := true
	for _, l := range t.lanes {
		for i, s := range l.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			args := map[string]any{"parent": s.parent, "round": s.round}
			if l.tid == 0 {
				args["id"] = i
			}
			ev := chromeEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: l.tid, Args: args}
			if err := enc.Encode(ev); err != nil {
				return fmt.Errorf("trace output: %w", err)
			}
		}
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

// meter accounts the calls one thread makes into one layer during one
// rung. The zero value only keeps totals.
type meter struct {
	ns, rows, calls [numKinds]int64

	// sampled, when true, appends every call's ns/row to samples (the
	// end-to-end run); the slice is pre-sized so timed rounds do not
	// allocate.
	sampled bool
	samples []float64
	// corrected counts the leading samples already on the reference clock.
	corrected int

	// lane, when non-nil, receives one span per call (the traced run),
	// named names[kind] and parented to the current round span.
	lane   *lane
	names  [numKinds]string
	parent int32
	round  int32
}

// meter returns the meter of one thread of a rung: its calls become spans
// named layer.kind on lane tid (with a nil tracer it only keeps totals).
func (t *tracer) meter(layer string, tid int) *meter {
	m := &meter{lane: t.lane(tid)}
	for k, name := range kindNames {
		m.names[k] = layer + "." + name
	}
	return m
}

// record accounts one call of kind k over rows rows that ran from t0 to t1.
func (m *meter) record(k callKind, rows int, t0, t1 int64) {
	m.ns[k] += t1 - t0
	m.rows[k] += int64(rows)
	m.calls[k]++
	if m.sampled {
		m.samples = append(m.samples, float64(t1-t0)/float64(rows))
	}
	if m.lane != nil {
		m.lane.spans = append(m.lane.spans, span{name: m.names[k], start: t0, end: t1, parent: m.parent, round: m.round})
	}
}

// correct puts the samples appended since the last call on the reference
// clock: each is divided by speed, the index measured around their round.
func (m *meter) correct(speed float64) {
	for i := m.corrected; i < len(m.samples); i++ {
		m.samples[i] /= speed
	}
	m.corrected = len(m.samples)
}

// reset forgets the totals (a ladder's warm-up round).
func (m *meter) reset() {
	m.ns, m.rows, m.calls = [numKinds]int64{}, [numKinds]int64{}, [numKinds]int64{}
}

// enter points the meter's future spans at a round span.
func (m *meter) enter(parent, round int32) { m.parent, m.round = parent, round }

// nsPerRow is the mean cost of kind k over everything recorded so far.
func (m *meter) nsPerRow(k callKind) float64 { return float64(m.ns[k]) / float64(m.rows[k]) }

// perRow returns the ns/row of every measured-round span called name on
// the given lanes, each span covering rows rows.
func (t *tracer) perRow(name string, rows int, lanes ...int) []float64 {
	var out []float64
	for _, tid := range lanes {
		for _, s := range t.lanes[tid].spans {
			if s.name == name && s.round >= 0 {
				out = append(out, float64(s.end-s.start)/float64(rows))
			}
		}
	}
	return out
}
