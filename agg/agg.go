// Package agg implements hash aggregation (GROUP BY) on top of the tables:
// the paper's §4 argues that its indexing workload "resembles very closely
// other important operations such as ... aggregate operations like AVERAGE,
// SUM, MIN, MAX, and COUNT", and reports that experiments simulating these
// operations matched the WORM results. This package provides those
// operators, built the way the equivalence reads — a GROUP BY over G groups
// is G inserts followed by (rows−G) successful lookups: AddBatch looks its
// rows up through the tables' read-only pipeline and only the rows that
// open a group take the insert path. bench_test.go's
// BenchmarkAggregateVsWORM reproduces the equivalence claim.
//
// The aggregation table maps group key -> index into a dense state array,
// the layout vectorized engines use: the hash table stays a pure 64->64
// map (so every scheme of package table is usable), while the per-group
// accumulators live contiguously.
package agg

import (
	"fmt"
	"iter"
	"math"

	"repro/hashfn"
	"repro/join"
	"repro/table"
)

// Func identifies an aggregate function.
type Func int

// The aggregate functions named by the paper (§4).
const (
	Count Func = iota
	Sum
	Min
	Max
	Avg
)

// String returns the SQL name.
func (f Func) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

// State accumulates one group.
type State struct {
	Key   uint64
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
}

// fold accumulates one observation into the group's state; the scalar and
// batched build paths share it so they cannot diverge.
func (s *State) fold(value uint64) {
	s.Count++
	s.Sum += value
	if value < s.Min {
		s.Min = value
	}
	if value > s.Max {
		s.Max = value
	}
}

// Avg returns the mean of the accumulated values.
func (s *State) Avg() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count)
}

// Value returns the aggregate under f.
func (s *State) Value(f Func) float64 {
	switch f {
	case Count:
		return float64(s.Count)
	case Sum:
		return float64(s.Sum)
	case Min:
		return float64(s.Min)
	case Max:
		return float64(s.Max)
	case Avg:
		return s.Avg()
	}
	return math.NaN()
}

// Config parameterizes a GroupBy.
type Config struct {
	// Scheme selects the group-index table. The default is QP for now:
	// AddBatch is G inserts, then lookups, and on a cache-resident index
	// QP and LP measure the same (30 of 60 interleaved pairs each way).
	Scheme table.Scheme
	// Family is the hash-function class (default Mult).
	Family hashfn.Family
	// ExpectedGroups pre-sizes the table; 0 starts small and grows.
	ExpectedGroups int
	Seed           uint64
}

// chunk is AddBatch's lookup stride; coldRun its stride while rows mostly
// open groups, a morsel long so the insert pipeline's setup is paid once.
const chunk, coldRun = 256, 4096

// GroupBy is a streaming hash aggregation operator.
type GroupBy struct {
	idx    *table.Handle
	states []State

	// AddBatch's chunk scratch (fixed, so a batch allocates nothing): the
	// lookup's result lanes, then the missed rows and the lane of each.
	at       [chunk]uint64
	hit      [chunk]bool
	missKey  [chunk]uint64
	missVal  [chunk]uint64
	missLane [chunk]int32
	cold     bool // the last stride opened groups on more than half its lanes

	// upsert's UpsertBatch callback, bound once by NewGroupBy so that a
	// call allocates no closure, and the columns and count it works on
	// for the duration of one call.
	upsertLane         func(lane int, old uint64, exists bool) uint64
	upGroups, upValues []uint64
	upDone             int
}

// NewGroupBy builds an empty aggregation operator on the unified table
// façade: the group index is opened through table.Open, and both it and
// the state array are pre-sized to cfg.ExpectedGroups. A group is opened
// by a single-probe primitive (GetOrPut in Add and Merge, UpsertBatch in
// AddBatch); rows of an existing group only read the index.
func NewGroupBy(cfg Config) (*GroupBy, error) {
	g := &GroupBy{}
	g.upsertLane = g.foldLane
	if err := g.Reset(cfg); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset empties g for reuse, as if it were new from NewGroupBy(cfg),
// whatever config g was opened under: it drops every group and opens a
// fresh group index under cfg. It keeps the chunk scratch, and the state
// array unless that is smaller than cfg.ExpectedGroups. The error is
// table.Open's, the one NewGroupBy returns for cfg; it leaves g unchanged.
func (g *GroupBy) Reset(cfg Config) error {
	if cfg.Scheme == "" {
		cfg.Scheme = table.SchemeQP
	}
	if cfg.Family == nil {
		cfg.Family = hashfn.MultFamily{}
	}
	idx, err := table.Open(
		table.WithScheme(cfg.Scheme),
		table.WithCapacity(max(join.CapacityFor(cfg.ExpectedGroups, 0.7), 1<<10)),
		table.WithMaxLoadFactor(0.7),
		table.WithHashFamily(cfg.Family),
		table.WithSeed(cfg.Seed),
	)
	if err != nil {
		return err
	}
	if cap(g.states) < cfg.ExpectedGroups {
		g.states = make([]State, 0, cfg.ExpectedGroups)
	}
	g.idx, g.states, g.cold = idx, g.states[:0], false
	return nil
}

// MustNewGroupBy is NewGroupBy that panics on error.
func MustNewGroupBy(cfg Config) *GroupBy {
	g, err := NewGroupBy(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Add folds one (group, value) observation into the aggregation with a
// single probe: GetOrPut finds the group's state index or claims the next
// one in the same probe sequence. The group index grows, so an organic
// ErrFull is unreachable; the returned error is non-nil only when the
// index refuses the probe (an armed fault injector synthesizing a
// *table.FullError), in which case the observation is not folded.
func (g *GroupBy) Add(group, value uint64) error {
	i, existed, err := g.idx.GetOrPut(group, uint64(len(g.states)))
	if err != nil {
		return err
	}
	if existed {
		g.states[i].fold(value)
		return nil
	}
	g.states = append(g.states, State{
		Key: group, Count: 1, Sum: value, Min: value, Max: value,
	})
	return nil
}

// AddBatch folds a column pair the way the paper's §4 describes an
// aggregation — G inserts, then lookups. Each chunk of rows goes down the
// group index's read-only GetBatch pipeline (bulk hash, touch, interleaved
// walk); rows that hit are folded straight from the columns, and only the
// rows that missed — the ones opening a group — are compacted and handed
// to UpsertBatch, one probe sequence each. Batched semantics are sequential
// semantics: a group first seen twice within one batch is opened once, and
// states are appended in first-seen row order. After a stride in which more
// than half the rows opened groups (a high-cardinality phase, where lookups
// would mostly miss) the next stride skips the lookup.
//
// A non-nil error (only reachable when a fault injector refuses the
// index's probes — the growing index never organically fills) means the
// batch stopped early: rows up to the refusal are folded, later rows are
// not. The error carries the table's typed ErrFull chain. Lookups pass no
// mutation entry point, so outside a high-cardinality phase a batch that
// opens no group cannot be refused.
func (g *GroupBy) AddBatch(groups, values []uint64) error {
	if len(groups) != len(values) {
		panic("agg: AddBatch column length mismatch")
	}
	for lo, hi := 0, 0; lo < len(groups); lo = hi {
		opened := len(g.states)
		var err error
		if g.cold {
			hi = min(lo+coldRun, len(groups))
			_, err = g.upsert(groups[lo:hi], values[lo:hi])
		} else {
			hi = min(lo+chunk, len(groups))
			err = g.lookupFold(groups[lo:hi], values[lo:hi])
		}
		g.cold = 2*(len(g.states)-opened) > hi-lo
		if err != nil {
			return err
		}
	}
	return nil
}

// lookupFold is AddBatch over one chunk. The misses are inserted before
// the hits are folded, so a refusal leaves exactly the rows before it in.
func (g *GroupBy) lookupFold(groups, values []uint64) error {
	at, hit := g.at[:len(groups)], g.hit[:len(groups)]
	folded := len(groups)
	var err error
	if g.idx.GetBatch(groups, at, hit) < len(groups) {
		m := 0
		for i, ok := range hit {
			if !ok {
				g.missKey[m], g.missVal[m], g.missLane[m] = groups[i], values[i], int32(i)
				m++
			}
		}
		var done int
		if done, err = g.upsert(g.missKey[:m], g.missVal[:m]); err != nil {
			folded = int(g.missLane[done])
		}
	}
	for i, ok := range hit[:folded] {
		if ok {
			g.states[at[i]].fold(values[i])
		}
	}
	return err
}

// upsert is the one insert path: each row finds or opens its group in one
// UpsertBatch probe sequence, in row order. done counts the rows folded,
// which on an error is the row the index refused.
func (g *GroupBy) upsert(groups, values []uint64) (done int, err error) {
	g.upGroups, g.upValues, g.upDone = groups, values, 0
	_, err = g.idx.UpsertBatch(groups, g.upsertLane)
	done = g.upDone
	g.upGroups, g.upValues = nil, nil // do not pin the caller's columns
	return done, err
}

// foldLane is upsert's callback for one lane of the columns it works on.
func (g *GroupBy) foldLane(lane int, old uint64, exists bool) uint64 {
	g.upDone = lane + 1
	v := g.upValues[lane]
	if exists {
		g.states[old].fold(v)
		return old
	}
	g.states = append(g.states, State{Key: g.upGroups[lane], Count: 1, Sum: v, Min: v, Max: v})
	return uint64(len(g.states) - 1)
}

// NumGroups returns the number of distinct groups seen.
func (g *GroupBy) NumGroups() int { return len(g.states) }

// Groups returns a Go 1.23 iterator over (group key, state) pairs in
// first-seen order — the streaming drain: a consumer (pipe.GroupBy's
// downstream operators, a Merge loop, a renderer) pulls one group at a
// time without a materialized result slice. The *State points into the
// operator's live state array; it is valid until the next mutation of g,
// and the iteration itself must not mutate g (no Add/Merge mid-drain).
func (g *GroupBy) Groups() iter.Seq2[uint64, *State] {
	return func(yield func(uint64, *State) bool) {
		for i := range g.states {
			if !yield(g.states[i].Key, &g.states[i]) {
				return
			}
		}
	}
}

// Get returns the state of one group.
func (g *GroupBy) Get(group uint64) (*State, bool) {
	i, ok := g.idx.Get(group)
	if !ok {
		return nil, false
	}
	return &g.states[i], true
}

// Merge folds other into g (for parallel aggregation: pipe's GroupBy
// aggregates per worker, then merges), one probe per merged group. A
// non-nil error (an injected index refusal; see AddBatch) stops the
// merge with the remaining groups of other unmerged.
func (g *GroupBy) Merge(other *GroupBy) error {
	for key, s := range other.Groups() {
		i, existed, err := g.idx.GetOrPut(key, uint64(len(g.states)))
		if err != nil {
			return err
		}
		if existed {
			dst := &g.states[i]
			dst.Count += s.Count
			dst.Sum += s.Sum
			if s.Min < dst.Min {
				dst.Min = s.Min
			}
			if s.Max > dst.Max {
				dst.Max = s.Max
			}
		} else {
			g.states = append(g.states, *s)
		}
	}
	return nil
}

// TableName reports the underlying scheme and function, e.g. "QPMult".
func (g *GroupBy) TableName() string { return g.idx.Name() }

// Stats returns the group-index table's observability snapshot.
func (g *GroupBy) Stats() table.Stats { return g.idx.Stats() }
