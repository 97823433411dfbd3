package pipe

// The streaming GROUP BY: each worker folds the batches it receives
// into its own agg.GroupBy local with AddBatch — a lookup phase over the
// worker's group index with an insert tail for the rows that open a
// group, the paper's §4 equivalence (no locks — the batchSink contract
// delivers worker w's batches on worker w's goroutine), and the other
// locals are merged once on drain into the first, which is the result.
// GroupByStream re-enters the pipeline: the merged result is streamed
// downstream group-at-a-time via agg's Groups iterator, never
// materialized into a result slice.

import (
	"fmt"

	"repro/agg"
	"repro/internal/freelist"
)

// GroupConfig parameterizes a streaming group-by. It is agg.Config: each
// worker's local is opened from it with the worker's own seed, and its
// ExpectedGroups pre-sizes every local's group index.
type GroupConfig = agg.Config

// GroupBy is the aggregating terminal: it runs the stream, folding each
// row (k, v) into group k, and returns the merged aggregation. With
// cfg.Workers == 1 the result is state-for-state identical to
// agg.AddBatch over the same rows; with more workers the per-group
// states are identical and only the first-seen group order varies.
func (s *Stream) GroupBy(cfg Config, gcfg GroupConfig) (*agg.GroupBy, error) {
	rt := newRuntime(cfg)
	return s.groupBy(rt, gcfg)
}

// groupBy is GroupBy on an existing runtime, shared with GroupByStream.
func (s *Stream) groupBy(rt *runtime, gcfg GroupConfig) (*agg.GroupBy, error) {
	locals := make([]*agg.GroupBy, rt.pool.Workers())
	err := s.src.run(rt, s.stages, func(w int, keys, vals []uint64) error {
		start := rt.opStart()
		local := locals[w]
		if local == nil {
			var err error
			if local, err = takeLocal(gcfg, w); err != nil {
				return err
			}
			locals[w] = local
		}
		err := local.AddBatch(keys, vals)
		rt.opDone(opGroupBy, w, len(keys), len(keys), start)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The first local is the result; the others fold into it and, once
	// every merge has succeeded, go back to the list.
	var result *agg.GroupBy
	merged := locals[:0]
	for _, local := range locals {
		if local == nil {
			continue
		}
		if result == nil {
			result = local
			continue
		}
		if err := result.Merge(local); err != nil {
			return nil, err
		}
		merged = append(merged, local)
	}
	putLocals(gcfg, merged...)
	if result == nil { // no row reached the group-by
		return agg.NewGroupBy(gcfg)
	}
	return result, nil
}

// groupLocals holds the group-by locals of finished runs: the ones a GroupBy
// merged away, and a GroupByStream's result once drained.
var groupLocals freelist.List[*agg.GroupBy]

// takeLocal lends worker w a group-by local for gcfg: any listed one,
// reset, or else a new one. Either way it is as new from agg.NewGroupBy
// under gcfg with the worker's own seed — the locals' group indexes are
// private, so their hash functions need not match.
func takeLocal(gcfg GroupConfig, w int) (*agg.GroupBy, error) {
	gcfg.Seed += uint64(w+1) * 0x9e3779b97f4a7c15
	if g, ok := groupLocals.Take(nil); ok {
		if err := g.Reset(gcfg); err != nil {
			return nil, err
		}
		return g, nil
	}
	return agg.NewGroupBy(gcfg)
}

// putLocals gives the locals of a gcfg run that ended without an error
// back to the list; the caller must not touch them again. A local that
// holds, or was sized for, more than maxPooledRows groups is dropped, so
// one run with a huge group count cannot pin its state array and index.
func putLocals(gcfg GroupConfig, gs ...*agg.GroupBy) {
	groupLocals.Give(func(g *agg.GroupBy) bool { return max(g.NumGroups(), gcfg.ExpectedGroups) <= maxPooledRows }, gs...)
}

// GroupByStream is the mid-pipeline group-by: it aggregates src like
// the GroupBy terminal, then streams the merged groups downstream as
// (group key, f(state)) rows — COUNT, SUM, MIN or MAX (AVG is not an
// integer and fails the run). The grouped output is emitted via agg's
// Groups iterator, one morsel-sized batch at a time; the full result
// slice never exists.
func GroupByStream(src *Stream, gcfg GroupConfig, f agg.Func) *Stream {
	hint := gcfg.ExpectedGroups
	if hint <= 0 {
		hint = src.size() // groups ≤ rows
	}
	return &Stream{src: &groupsSource{src: src, gcfg: gcfg, fn: f}, hint: hint}
}

// FromGroups streams an already-built aggregation as
// (group key, f(state)) rows, in first-seen order.
func FromGroups(g *agg.GroupBy, f agg.Func) *Stream {
	return &Stream{src: &groupsSource{agg: g, fn: f}}
}

// stateValue extracts the streamed aggregate from one group state.
func stateValue(f agg.Func, s *agg.State) (uint64, error) {
	switch f {
	case agg.Count:
		return s.Count, nil
	case agg.Sum:
		return s.Sum, nil
	case agg.Min:
		return s.Min, nil
	case agg.Max:
		return s.Max, nil
	}
	return 0, fmt.Errorf("pipe: %v cannot stream as a uint64 column; aggregate with the GroupBy terminal instead", f)
}

// groupsSource streams the groups of an aggregation — either a finished
// one (agg set) or one built on demand from src when the terminal runs.
type groupsSource struct {
	src  *Stream // nil when agg is pre-built
	agg  *agg.GroupBy
	gcfg GroupConfig
	fn   agg.Func
}

func (s *groupsSource) rows() int {
	if s.agg != nil {
		return s.agg.NumGroups()
	}
	if s.gcfg.ExpectedGroups > 0 {
		return s.gcfg.ExpectedGroups
	}
	return s.src.size()
}

func (s *groupsSource) run(rt *runtime, stages []stage, sink batchSink) error {
	g := s.agg
	if g == nil {
		var err error
		if g, err = s.src.groupBy(rt, s.gcfg); err != nil {
			return err
		}
	}
	// The drain is serial: groups live in one merged operator. An
	// aggregation built here is this run's own, so a drain that ends
	// without an error gives it back.
	var verr error
	err := rt.drainSerial(stages, sink, func(fn func(k, v uint64) bool) {
		for key, st := range g.Groups() {
			var v uint64
			if v, verr = stateValue(s.fn, st); verr != nil || !fn(key, v) {
				return
			}
		}
	})
	if verr != nil {
		err = verr
	}
	if err == nil && s.agg == nil {
		putLocals(s.gcfg, g)
	}
	return err
}
