// Package partition provides the two multi-threading strategies the paper
// names for taking its single-threaded hash tables parallel (§1):
//
//   - Partitioned: radix-partition the key space by hash bits into P
//     independent single-threaded tables, one owner at a time during
//     parallel phases. This is the paper's preferred argument — "each
//     partition can be considered an isolated unit of work that is only
//     accessed by exactly one thread at a time, and therefore concurrency
//     control inside the hash tables is not needed" — and the substrate of
//     the partition-based hash joins it cites (Balkesen et al., Barber et
//     al., Lang et al.).
//   - Striped: wrap any table.Map per-partition with a mutex (the paper's
//     "striped locking"), for callers that need shared-memory concurrent
//     access rather than phase-parallel ownership.
//
// Partitioning is by the TOP bits of a dedicated partition hash, which are
// disjoint from the bits the inner tables consume only if different
// functions are used; Partitioned therefore draws a separate hash function
// for routing, seeded independently of the per-partition tables.
//
// All parallelism runs through the exec core: the *Parallel methods stage
// the column with exec.Scatter (the one stable scatter→group-major→gather
// primitive) and schedule one task per partition on a bounded worker pool
// (Config.Workers, default one worker per CPU) — a partition is a unit of
// WORK, not a goroutine, so the fan-out is bounded by the machine rather
// than by P.
package partition

import (
	"context"
	"fmt"
	"iter"
	"math/bits"

	"repro/exec"
	"repro/hashfn"
	"repro/table"
)

// Config parameterizes a partitioned map.
type Config struct {
	// Partitions is the number of partitions P, rounded up to a power of
	// two (minimum 1).
	Partitions int
	// Workers bounds the goroutines the *Parallel methods use (default:
	// exec's one-per-CPU default; at most one per partition is ever
	// active, so Workers > Partitions buys nothing).
	Workers int
	// Ctx, when non-nil, cancels the *Parallel methods between tasks:
	// the claim cursor stops like on a first error and ctx.Err() is
	// returned.
	Ctx context.Context
	// Scheme selects the per-partition table implementation.
	Scheme table.Scheme
	// Table configures each inner table; Table.InitialCapacity is the
	// TOTAL capacity, split evenly across partitions.
	Table table.Config
}

// Partitioned is a hash map split into P independent single-threaded
// tables. Point operations (Put/Get/Delete) are single-threaded like the
// underlying tables; the *Parallel methods fan work out through the exec
// pool with one task per partition, which is safe because each task
// touches only its own partition.
type Partitioned struct {
	parts   []table.Table
	router  hashfn.Function
	shift   uint // 64 - log2(P)
	workers int
	ctx     context.Context
	sc      *exec.Scatter
}

// scratch returns the map's reusable scatter. The batched methods inherit
// the tables' single-threaded contract, and the *Parallel methods stage
// sequentially before fanning out (workers then touch only disjoint
// staged ranges), so one scatter per map suffices.
func (m *Partitioned) scratch() *exec.Scatter {
	if m.sc == nil {
		m.sc = new(exec.Scatter)
	}
	return m.sc
}

// New builds a partitioned map.
func New(cfg Config) (*Partitioned, error) {
	p := cfg.Partitions
	if p < 1 {
		p = 1
	}
	p = 1 << uint(bits.Len(uint(p-1)))
	if cfg.Scheme == "" {
		cfg.Scheme = table.SchemeRH
	}
	inner := cfg.Table
	if inner.Family == nil {
		inner.Family = hashfn.MultFamily{}
	}
	if inner.InitialCapacity > p {
		inner.InitialCapacity /= p
	}
	pm := &Partitioned{
		parts: make([]table.Table, p),
		// The router must be independent of the per-partition functions;
		// derive it from a distinct seed stream.
		router:  inner.Family.New(inner.Seed ^ 0x9a77_e4b0_0f00_d001),
		shift:   uint(64 - bits.TrailingZeros(uint(p))),
		workers: cfg.Workers,
		ctx:     cfg.Ctx,
	}
	for i := range pm.parts {
		c := inner
		c.Seed = inner.Seed + uint64(i)*0x9e3779b97f4a7c15
		m, err := table.New(cfg.Scheme, c)
		if err != nil {
			return nil, err
		}
		pm.parts[i] = m
	}
	return pm, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Partitioned {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Partitions returns P.
func (m *Partitioned) Partitions() int { return len(m.parts) }

// Partition returns the index of the partition owning key.
func (m *Partitioned) Partition(key uint64) int {
	if len(m.parts) == 1 {
		return 0
	}
	return int(m.router.Hash(key) >> m.shift)
}

// Put inserts or updates key in its partition.
func (m *Partitioned) Put(key, val uint64) bool {
	return m.parts[m.Partition(key)].Put(key, val)
}

// Get looks key up in its partition.
func (m *Partitioned) Get(key uint64) (uint64, bool) {
	return m.parts[m.Partition(key)].Get(key)
}

// Delete removes key from its partition.
func (m *Partitioned) Delete(key uint64) bool {
	return m.parts[m.Partition(key)].Delete(key)
}

// Len sums the partition sizes.
func (m *Partitioned) Len() int {
	n := 0
	for _, p := range m.parts {
		n += p.Len()
	}
	return n
}

// Capacity sums the partition capacities.
func (m *Partitioned) Capacity() int {
	n := 0
	for _, p := range m.parts {
		n += p.Capacity()
	}
	return n
}

// LoadFactor returns Len/Capacity across all partitions.
func (m *Partitioned) LoadFactor() float64 {
	return float64(m.Len()) / float64(m.Capacity())
}

// MemoryFootprint sums the partition footprints.
func (m *Partitioned) MemoryFootprint() uint64 {
	var n uint64
	for _, p := range m.parts {
		n += p.MemoryFootprint()
	}
	return n
}

// Range iterates every partition in order.
func (m *Partitioned) Range(fn func(key, val uint64) bool) {
	for _, p := range m.parts {
		stopped := false
		p.Range(func(k, v uint64) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// RangeFrom implements table.Table partition-major: position i*stride+p
// is position p of partition i's own walk, stride being past any
// partition's last position (a scheme uses at most Capacity()+2).
func (m *Partitioned) RangeFrom(pos int, fn func(key, val uint64) bool) (next int) {
	stride := 0
	for _, p := range m.parts {
		stride = max(stride, p.Capacity()+3)
	}
	more := true
	relay := func(k, v uint64) bool {
		more = fn(k, v) && more // a chained partition finishes its chain
		return more
	}
	for i := pos / stride; i < len(m.parts); i++ {
		next = m.parts[i].RangeFrom(pos%stride, relay)
		if !more {
			return i*stride + next
		}
		pos = 0
	}
	return len(m.parts) * stride
}

// Name identifies the composite.
func (m *Partitioned) Name() string {
	return fmt.Sprintf("Partitioned[%dx%s]", len(m.parts), m.parts[0].Name())
}

var (
	_ table.Map     = (*Partitioned)(nil)
	_ table.Batcher = (*Partitioned)(nil)
	_ table.Table   = (*Partitioned)(nil)
)

// TryPut implements table.Table: Put with the ErrFull contract, routed to
// the key's partition.
func (m *Partitioned) TryPut(key, val uint64) (bool, error) {
	return m.parts[m.Partition(key)].TryPut(key, val)
}

// GetOrPut implements table.Table: one probe sequence in the key's
// partition.
func (m *Partitioned) GetOrPut(key, val uint64) (uint64, bool, error) {
	return m.parts[m.Partition(key)].GetOrPut(key, val)
}

// Upsert implements table.Table.
func (m *Partitioned) Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	return m.parts[m.Partition(key)].Upsert(key, fn)
}

// All implements table.Table.
func (m *Partitioned) All() iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) { m.Range(yield) }
}

// TryPutBatch implements table.Table with the staged scatter of PutBatch.
// On ErrFull it stops, returning the number of keys newly inserted so far;
// keys routed to partitions processed earlier remain applied.
func (m *Partitioned) TryPutBatch(keys, vals []uint64) (int, error) {
	if len(keys) != len(vals) {
		panic("partition: TryPutBatch keys/vals length mismatch")
	}
	if len(m.parts) == 1 {
		return m.parts[0].TryPutBatch(keys, vals)
	}
	st := m.stage(keys, vals)
	inserted := 0
	for j := range m.parts {
		lo, hi := st.Starts[j], st.Starts[j+1]
		n, err := m.parts[j].TryPutBatch(st.Keys[lo:hi], st.Vals[lo:hi])
		inserted += n
		if err != nil {
			return inserted, err
		}
	}
	return inserted, nil
}

// GetOrPutBatch implements table.Table: keys are staged per partition
// (stable scatter, so duplicate keys keep slice order — they always share
// a partition), each partition runs its single-probe batch, and results
// scatter back to the callers' lanes. On ErrFull the out/loaded contents
// are unspecified; earlier partitions' inserts remain applied.
func (m *Partitioned) GetOrPutBatch(keys, vals, out []uint64, loaded []bool) (int, error) {
	if len(vals) != len(keys) {
		panic("partition: GetOrPutBatch keys/vals length mismatch")
	}
	if len(out) < len(keys) || len(loaded) < len(keys) {
		panic("partition: GetOrPutBatch output slices shorter than keys")
	}
	if len(m.parts) == 1 {
		return m.parts[0].GetOrPutBatch(keys, vals, out, loaded)
	}
	st := m.stage(keys, vals)
	inserted := 0
	for j := range m.parts {
		lo, hi := st.Starts[j], st.Starts[j+1]
		// out aliases vals within each partition's staged range: the
		// schemes read the insert value before writing the result lane.
		n, err := m.parts[j].GetOrPutBatch(st.Keys[lo:hi], st.Vals[lo:hi], st.Vals[lo:hi], st.OK[lo:hi])
		inserted += n
		if err != nil {
			return inserted, err
		}
	}
	for i, oi := range st.Orig {
		out[oi], loaded[oi] = st.Vals[i], st.OK[i]
	}
	return inserted, nil
}

// UpsertBatch implements table.Table; fn receives each key's lane in the
// original slice. fn must not call back into the map.
func (m *Partitioned) UpsertBatch(keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	if len(m.parts) == 1 {
		return m.parts[0].UpsertBatch(keys, fn)
	}
	st := m.stage(keys, nil)
	inserted := 0
	for j := range m.parts {
		lo, hi := st.Starts[j], st.Starts[j+1]
		if lo == hi {
			continue
		}
		orig := st.Orig[lo:hi]
		n, err := m.parts[j].UpsertBatch(st.Keys[lo:hi], func(lane int, old uint64, exists bool) uint64 {
			return fn(int(orig[lane]), old, exists)
		})
		inserted += n
		if err != nil {
			return inserted, err
		}
	}
	return inserted, nil
}

// GetBatch implements table.Batcher: keys are staged per partition (stable
// scatter), each partition's staging buffer is flushed through its table's
// batched pipeline, and results are scattered back to the callers' lanes.
// It returns the number of hits.
func (m *Partitioned) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	if len(vals) < len(keys) || len(ok) < len(keys) {
		panic("partition: GetBatch output slices shorter than keys")
	}
	if len(m.parts) == 1 {
		return table.GetBatch(m.parts[0], keys, vals, ok)
	}
	st := m.stage(keys, nil)
	hits := 0
	for j := range m.parts {
		lo, hi := st.Starts[j], st.Starts[j+1]
		hits += table.GetBatch(m.parts[j], st.Keys[lo:hi], st.Vals[lo:hi], st.OK[lo:hi])
	}
	for i, oi := range st.Orig {
		vals[oi], ok[oi] = st.Vals[i], st.OK[i]
	}
	return hits
}

// PutBatch implements table.Batcher with the same staging strategy. The
// scatter is stable, so duplicate keys (which always share a partition)
// keep their slice order and therefore sequential last-wins semantics.
func (m *Partitioned) PutBatch(keys []uint64, vals []uint64) int {
	if len(keys) != len(vals) {
		panic("partition: PutBatch keys/vals length mismatch")
	}
	if len(m.parts) == 1 {
		return table.PutBatch(m.parts[0], keys, vals)
	}
	st := m.stage(keys, vals)
	inserted := 0
	for j := range m.parts {
		lo, hi := st.Starts[j], st.Starts[j+1]
		inserted += table.PutBatch(m.parts[j], st.Keys[lo:hi], st.Vals[lo:hi])
	}
	return inserted
}

// stage routes keys (and vals, when non-nil) and regroups them
// partition-major through the shared exec.Scatter primitive. The returned
// scatter is the map's scratch and is valid until the next batched
// operation.
func (m *Partitioned) stage(keys, vals []uint64) *exec.Scatter {
	sc := m.scratch()
	sc.Route(m.router, m.shift, len(m.parts), keys, vals)
	return sc
}

// Skew reports the imbalance across partitions: max partition size divided
// by the mean (1.0 = perfectly balanced). Partition-based parallelism is
// only as fast as its fullest partition.
func (m *Partitioned) Skew() float64 {
	if m.Len() == 0 {
		return 1
	}
	max := 0
	for _, p := range m.parts {
		if p.Len() > max {
			max = p.Len()
		}
	}
	mean := float64(m.Len()) / float64(len(m.parts))
	return float64(max) / mean
}

// BuildParallel radix-partitions keys/vals and inserts each partition's
// staged slice as one task on the exec pool — the build phase of a
// partition-based hash join, with the fan-out bounded by Config.Workers
// rather than one goroutine per partition. keys and vals must have equal
// length. It returns the number of newly inserted keys; a non-nil error
// (cancellation via Config.Ctx, or a contained *exec.PanicError) means
// the build stopped with some partitions unapplied.
func (m *Partitioned) BuildParallel(keys, vals []uint64) (int, error) {
	if len(keys) != len(vals) {
		panic("partition: BuildParallel keys/vals length mismatch")
	}
	p := len(m.parts)
	// Partitioning pass (single-threaded scatter, as in the cited joins'
	// partition phase); workers then flush disjoint staged ranges through
	// the batched pipelines, one owner task per partition, no locks.
	st := m.stage(keys, vals)
	inserted := make([]int, p)
	err := exec.RunTasks(exec.Config{Workers: m.workers, Ctx: m.ctx}, p, func(_, j int) error {
		lo, hi := st.Starts[j], st.Starts[j+1]
		inserted[j] = table.PutBatch(m.parts[j], st.Keys[lo:hi], st.Vals[lo:hi])
		return nil
	})
	total := 0
	for _, n := range inserted {
		total += n
	}
	return total, err
}

// ProbeParallel looks up every probe key, writing results into out (values)
// and found, with one exec task per partition (fan-out bounded by
// Config.Workers). out and found must be the same length as probes. It
// returns the number of hits; on a non-nil error (cancellation or a
// contained panic) the out/found lanes of unprobed partitions are stale.
func (m *Partitioned) ProbeParallel(probes []uint64, out []uint64, found []bool) (int, error) {
	if len(out) != len(probes) || len(found) != len(probes) {
		panic("partition: ProbeParallel output length mismatch")
	}
	p := len(m.parts)
	st := m.stage(probes, nil)
	hits := make([]int, p)
	err := exec.RunTasks(exec.Config{Workers: m.workers, Ctx: m.ctx}, p, func(_, j int) error {
		lo, hi := st.Starts[j], st.Starts[j+1]
		hits[j] = table.GetBatch(m.parts[j], st.Keys[lo:hi], st.Vals[lo:hi], st.OK[lo:hi])
		return nil
	})
	for i, oi := range st.Orig {
		out[oi], found[oi] = st.Vals[i], st.OK[i]
	}
	total := 0
	for _, h := range hits {
		total += h
	}
	return total, err
}
