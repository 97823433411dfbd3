package table

// The workload-aware façade: Open builds a Handle from functional options,
// walking the paper's Figure 8 decision graph when the caller describes a
// workload instead of naming a scheme, and optionally striping the table
// across partitions for shared-memory concurrent use. Handle unifies the
// scalar, batched and single-probe read-modify-write operations in one
// surface, reports ErrFull when a growth-disabled table is out of room, and
// exposes Stats and Go 1.23 iterators for observability.

import (
	"fmt"
	"iter"
	"sync"

	"repro/hashfn"
	"repro/internal/fault"
	"repro/shard"
)

// DefaultMaxLoadFactor is the growth threshold Open uses when
// WithMaxLoadFactor is not given: production-friendly growth just below
// the level where probing schemes degrade (§5.2). Pass
// WithMaxLoadFactor(0) for the paper's pre-allocated (WORM) contract.
const DefaultMaxLoadFactor = 0.85

// defaultOpenCapacity is the initial capacity when WithCapacity is absent.
const defaultOpenCapacity = 1 << 10

// openConfig accumulates the functional options of Open.
type openConfig struct {
	scheme     Scheme
	schemeSet  bool
	workload   *Workload
	capacity   int
	maxLF      float64
	family     hashfn.Family
	seed       uint64
	partitions int
}

// Option configures Open.
type Option func(*openConfig) error

// WithScheme pins the hashing scheme. Mutually exclusive with
// WithWorkload, which derives the scheme from a workload description.
func WithScheme(s Scheme) Option {
	return func(c *openConfig) error {
		c.scheme = s
		c.schemeSet = true
		return nil
	}
}

// WithWorkload describes the anticipated workload and lets Open walk the
// paper's Figure 8 decision graph to select the scheme (the decision path
// is retained on the Handle for auditing). Mutually exclusive with
// WithScheme.
func WithWorkload(w Workload) Option {
	return func(c *openConfig) error {
		if err := w.Validate(); err != nil {
			return err
		}
		c.workload = &w
		return nil
	}
}

// maxCapacity bounds WithCapacity: 2^43 slots of 16 bytes fill 2^47
// bytes, the whole user address space of 64-bit Linux, so no larger slot
// array can be allocated.
const maxCapacity = 1 << 43

// WithCapacity sets the initial slot capacity, rounded up to a power of
// two (total across partitions when combined with WithPartitions).
func WithCapacity(n int) Option {
	return func(c *openConfig) error {
		if n < 0 {
			return fmt.Errorf("table: negative capacity %d", n)
		}
		if int64(n) > maxCapacity {
			return fmt.Errorf("table: capacity %d exceeds the %d slots an address space can hold", n, int64(maxCapacity))
		}
		c.capacity = n
		return nil
	}
}

// WithMaxLoadFactor sets the occupancy threshold at which the table grows.
// Zero disables growth (the paper's pre-allocated WORM contract: mutations
// return ErrFull when the fixed capacity is exhausted). Values outside
// [0, 1), NaN included, are rejected by Open, as New rejects them in a
// Config.
func WithMaxLoadFactor(f float64) Option {
	return func(c *openConfig) error {
		c.maxLF = f
		return nil
	}
}

// WithHashFamily sets the hash-function class (default Mult, the paper's
// overall recommendation).
func WithHashFamily(f hashfn.Family) Option {
	return func(c *openConfig) error {
		if f == nil {
			return fmt.Errorf("table: nil hash family")
		}
		c.family = f
		return nil
	}
}

// WithSeed derives all hash-function parameters. Two handles opened with
// identical options are identical.
func WithSeed(seed uint64) Option {
	return func(c *openConfig) error {
		c.seed = seed
		return nil
	}
}

// WithPartitions shards the handle across n independently locked tables
// (rounded up to a power of two) — the paper's "striped locking" extension
// for shared-memory concurrency (§1), served by a shard.Engine. Keys are
// routed by a dedicated router hash drawn independently of the per-shard
// table functions; reads are wait-free (epoch-published shard views
// validated by a per-shard seqlock), and growth (when a
// positive max load factor is configured) is the engine's incremental
// resize instead of a stop-the-world rehash. n <= 1 keeps the handle
// single-table and lock-free.
func WithPartitions(n int) Option {
	return func(c *openConfig) error {
		if n < 0 {
			return fmt.Errorf("table: negative partition count %d", n)
		}
		c.partitions = n
		return nil
	}
}

// Handle is the unified table façade produced by Open: scalar and batched
// point operations, single-probe read-modify-write primitives, error-based
// growth (ErrFull), iterators, and a Stats snapshot.
//
// Concurrency contract: a single-partition Handle is a zero-lock
// pass-through to one scheme with one writer at a time: a mutation needs
// external synchronization against every other call. While nothing mutates
// it, any number of goroutines may Get and GetBatch it (lookups write no table
// state). PutIfAbsentBatch alone may be shared among any number of
// goroutines on any handle while nothing else runs; whatever joins them
// orders their inserts before the reads that follow. A Handle
// opened WithPartitions(n > 1) delegates every operation to a
// shard.Engine and is safe for arbitrary concurrent use: Get, GetBatch,
// Len and Stats take no lock at all (wait-free seqlock reads of each
// shard's published view), mutations serialize per shard on its writer
// lock, and growth is the engine's incremental resize. Range/All hold one
// shard's writer lock at a time and are weakly consistent (see
// shard.Engine.Range). There is nothing to close: a handle dropped at any
// point, mid-resize included, is ordinary garbage.
type Handle struct {
	ops    handleOps     // the one table of an unpartitioned handle, or eng
	eng    *shard.Engine // the sharded engine (nil when single)
	scheme Scheme
	family string
	path   []string   // Figure 8 decision trail when opened WithWorkload
	build  sync.Mutex // PutIfAbsentBatch's callers on a table without compare-and-swap claims
}

// handleOps is the surface a Handle forwards to, which a raw Table and a
// *shard.Engine share: the Table contract but for RangeFrom and Name.
type handleOps interface {
	Get(key uint64) (uint64, bool)
	GetBatch(keys, vals []uint64, ok []bool) int
	Delete(key uint64) bool
	RMW(key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error)
	RMWBatch(keys, vals, out []uint64, loaded []bool, overwrite bool, fn func(lane int, old uint64, exists bool) uint64) (int, error)
	Len() int
	Capacity() int
	MemoryFootprint() uint64
}

// Open builds a Handle from functional options. With no options it opens
// a growing Robin Hood table with multiply-shift hashing — the paper's
// all-rounder. Invalid or conflicting options return descriptive errors
// rather than silently degrading.
func Open(opts ...Option) (*Handle, error) {
	cfg := openConfig{
		capacity:   defaultOpenCapacity,
		maxLF:      DefaultMaxLoadFactor,
		family:     hashfn.MultFamily{},
		partitions: 1,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := checkMaxLoadFactor(cfg.maxLF); err != nil {
		return nil, err
	}
	if cfg.schemeSet && cfg.workload != nil {
		return nil, fmt.Errorf("table: WithScheme and WithWorkload are mutually exclusive; drop one")
	}

	h := &Handle{scheme: SchemeRH, family: cfg.family.Name()}
	if cfg.schemeSet {
		h.scheme = cfg.scheme
	}
	if cfg.workload != nil {
		scheme, path, err := Recommend(*cfg.workload)
		if err != nil {
			return nil, err
		}
		h.scheme, h.path = scheme, path
	}

	if cfg.partitions <= 1 {
		t, err := New(h.scheme, Config{
			InitialCapacity: cfg.capacity,
			MaxLoadFactor:   cfg.maxLF,
			Family:          cfg.family,
			Seed:            cfg.seed,
		})
		if err != nil {
			return nil, err
		}
		h.ops = t
		return h, nil
	}
	// Partitioned: one shard.Engine over per-shard tables with scheme-level
	// growth disabled — the engine grows shards incrementally at the
	// configured threshold (or not at all when it is zero, preserving the
	// WORM ErrFull contract).
	eng, err := shard.New(shard.Config{
		Shards:   cfg.partitions,
		Capacity: cfg.capacity,
		GrowAt:   cfg.maxLF,
		Family:   cfg.family,
		Seed:     cfg.seed,
		NewTable: func(capacity int, seed uint64) (shard.Table, error) {
			return New(h.scheme, Config{
				InitialCapacity: capacity,
				MaxLoadFactor:   0,
				Family:          cfg.family,
				Seed:            seed,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	h.ops, h.eng = eng, eng
	return h, nil
}

// MustOpen is Open that panics on error, for tests and static
// configuration.
func MustOpen(opts ...Option) *Handle {
	h, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return h
}

// Scheme returns the hashing scheme behind the handle.
func (h *Handle) Scheme() Scheme { return h.scheme }

// HashName returns the hash-function family name, e.g. "Mult".
func (h *Handle) HashName() string { return h.family }

// Name returns the paper-style label, e.g. "RHMult", prefixed with the
// shard count when partitioned.
func (h *Handle) Name() string {
	if h.eng != nil {
		return fmt.Sprintf("Striped[%dx%s%s]", h.eng.Shards(), h.scheme, h.family)
	}
	return string(h.scheme) + h.family
}

// Partitions returns the number of shards (1 for an unpartitioned
// handle).
func (h *Handle) Partitions() int {
	if h.eng != nil {
		return h.eng.Shards()
	}
	return 1
}

// Engine returns the shard.Engine serving a partitioned handle, for
// callers that want the engine-level surface (migration counters,
// weakly-consistent iteration, direct batched access). It is nil for a
// single-partition handle.
func (h *Handle) Engine() *shard.Engine { return h.eng }

// DecisionPath returns the Figure 8 audit trail when the handle was opened
// WithWorkload, nil otherwise.
func (h *Handle) DecisionPath() []string { return h.path }

// rmw is every scalar write of the handle, with the Table contract's RMW
// mode rule. First the armed fault injector's Full kind may fire,
// synthesizing the same *FullError a genuinely full growth-disabled table
// would return; disarmed (the default) that is one atomic pointer load.
func (h *Handle) rmw(key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error) {
	if fault.Should(fault.Full) {
		return 0, false, errInjectedFull(string(h.scheme))
	}
	return h.ops.RMW(key, val, overwrite, fn)
}

// rmwBatch is rmw for every batched write of the handle.
func (h *Handle) rmwBatch(keys, vals, out []uint64, loaded []bool, overwrite bool, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	if fault.Should(fault.Full) {
		return 0, errInjectedFull(string(h.scheme))
	}
	return h.ops.RMWBatch(keys, vals, out, loaded, overwrite, fn)
}

// Put inserts or updates key -> val, reporting whether the key was newly
// inserted. On a full growth-disabled handle it returns ErrFull (wrapped
// in a *FullError) and leaves the table unchanged.
func (h *Handle) Put(key, val uint64) (bool, error) {
	_, existed, err := h.rmw(key, val, true, nil)
	return !existed && err == nil, err
}

// Get returns the value stored under key and whether it is present. On a
// partitioned handle this takes no lock at all (the engine's wait-free
// read path), so lookups proceed concurrently with each other and with
// writers.
func (h *Handle) Get(key uint64) (uint64, bool) { return h.ops.Get(key) }

// Delete removes key, reporting whether it was present.
func (h *Handle) Delete(key uint64) bool { return h.ops.Delete(key) }

// GetOrPut returns the value stored under key if present (loaded true);
// otherwise it inserts val and returns it (loaded false). Exactly one
// probe sequence is issued either way.
func (h *Handle) GetOrPut(key, val uint64) (actual uint64, loaded bool, err error) {
	return h.rmw(key, val, false, nil)
}

// Upsert applies fn to the value stored under key (exists true) or to
// (0, false) when absent, stores the result, and returns it — one probe
// sequence. fn must not call back into the handle.
func (h *Handle) Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	v, _, err := h.rmw(key, 0, false, fn)
	return v, err
}

// Len returns the number of live entries. On a partitioned handle it takes
// no lock: each shard publishes its count atomically.
func (h *Handle) Len() int { return h.ops.Len() }

// Capacity returns the total slot capacity across all shards.
func (h *Handle) Capacity() int { return h.ops.Capacity() }

// LoadFactor returns Len/Capacity.
func (h *Handle) LoadFactor() float64 {
	return float64(h.Len()) / float64(h.Capacity())
}

// MemoryFootprint returns the total bytes across all shards.
func (h *Handle) MemoryFootprint() uint64 { return h.ops.MemoryFootprint() }

// Range calls fn for every entry until fn returns false. On a partitioned
// handle iteration is weakly consistent (it holds one shard's writer lock
// at a time; see shard.Engine.Range) and fn must not call back into the
// handle.
func (h *Handle) Range(fn func(key, val uint64) bool) {
	if h.eng != nil {
		h.eng.Range(fn)
		return
	}
	// A chained RangeFrom hands fn's wrapper the rest of the chain fn
	// stopped in; fn itself sees nothing after it returned false.
	stopped := false
	h.ops.(Table).RangeFrom(0, func(k, v uint64) bool {
		stopped = stopped || !fn(k, v)
		return !stopped
	})
}

// All returns a Go 1.23 range-over-func iterator over the entries,
// equivalent to Range.
func (h *Handle) All() iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) { h.Range(yield) }
}

// Stats collects a point-in-time snapshot. It walks every table
// (O(capacity)); intended for observability, not hot paths. On a
// partitioned handle the scheme-level probe diagnostics are merged across
// shards, and the size accounting comes from the engine (so Len matches
// Len() even while a shard migrates and briefly holds an entry in both
// its tables).
func (h *Handle) Stats() Stats {
	if h.eng == nil {
		return StatsOf(h.ops.(Table))
	}
	var s Stats
	first := true
	h.eng.ForEachTable(func(_ int, t Table) {
		st := StatsOf(t)
		if first {
			s, first = st, false
		} else {
			s.merge(st)
		}
	})
	es := h.eng.Stats()
	s.Partitions = es.Shards
	s.Len = es.Len
	s.Capacity = es.Capacity
	s.LoadFactor = es.LoadFactor
	s.MemoryBytes = es.MemoryBytes
	return s
}

// EngineStats returns the shard-engine snapshot of a partitioned handle —
// shard count plus the incremental-resize counters. The zero Stats is
// returned for a single-partition handle.
func (h *Handle) EngineStats() shard.Stats {
	if h.eng == nil {
		return shard.Stats{}
	}
	return h.eng.Stats()
}

// ---------------------------------------------------------------------------
// Batched operations
// ---------------------------------------------------------------------------

// GetBatch looks up keys[i] into vals[i], ok[i] for every i and returns
// the number of hits. vals and ok must be at least as long as keys.
func (h *Handle) GetBatch(keys, vals []uint64, ok []bool) int { return h.ops.GetBatch(keys, vals, ok) }

// PutBatch upserts the pairs (keys[i], vals[i]) in slice order, returning
// the number of newly inserted keys. On ErrFull it stops; pairs already
// applied remain.
func (h *Handle) PutBatch(keys, vals []uint64) (int, error) {
	return h.rmwBatch(keys, vals, nil, nil, true, nil)
}

// GetOrPutBatch applies GetOrPut to every (keys[i], vals[i]) pair in slice
// order: out[i] receives the resulting value, loaded[i] whether the key
// already existed. It returns the number of newly inserted keys; on
// ErrFull it stops, with earlier pairs applied.
func (h *Handle) GetOrPutBatch(keys, vals, out []uint64, loaded []bool) (int, error) {
	return h.rmwBatch(keys, vals, out, loaded, false, nil)
}

// PutIfAbsentBatch is GetOrPutBatch with nothing returned but the number of
// newly inserted keys: the first payload offered for a key stays. Goroutines
// may share it on any handle (see the concurrency contract). Returning no
// values is what lets them share a fixed kernel table that never displaces
// (LP, LPSoA, QP) without a lock: slots are claimed by compare-and-swap, and
// a caller that meets another's key may be ahead of its value. Any other
// single table — RH, Cuckoo, chained, or a growing one — moves or allocates
// on insert and takes the calls one at a time as GetOrPutBatch under the
// handle's mutex; a partitioned handle runs it as GetOrPutBatch. On ErrFull
// it stops, with earlier pairs applied.
func (h *Handle) PutIfAbsentBatch(keys, vals []uint64) (int, error) {
	if c, ok := h.ops.(*kern); ok && !c.robin && c.maxLF == 0 {
		if fault.Should(fault.Full) {
			return 0, errInjectedFull(string(h.scheme))
		}
		return c.putIfAbsentBatch(keys, vals)
	}
	if h.eng == nil {
		h.build.Lock()
		defer h.build.Unlock()
	}
	return h.rmwBatch(keys, vals, nil, nil, false, nil)
}

// UpsertBatch applies an Upsert to every key, passing fn the key's lane
// index in the original slice. Duplicate keys are processed in slice order
// (they always share a shard). It returns the number of newly inserted
// keys.
func (h *Handle) UpsertBatch(keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (int, error) {
	return h.rmwBatch(keys, nil, nil, nil, false, fn)
}
