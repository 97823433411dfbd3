// Package shard implements the repo's one striping core: Engine, a
// concurrency-safe sharded hash-table engine with incremental resize and
// wait-free reads: the paper's striped-locking extension (§1), which
// table.Handle's partitioned mode delegates to.
//
// # Architecture
//
// An Engine routes every key to one of P shards (P a power of two) by the
// top bits of an independent router hash, exactly like the partitioned
// radix scheme the paper cites for parallel joins. Each shard owns one
// single-threaded table reached two ways:
//
//   - Writers serialize on the shard's sync.Mutex and mutate the table in
//     place inside a seqlock window (the shard's sequence counter is odd
//     for the duration). One that finds the lock held watches that
//     counter for a batch hold's length before it sleeps (acquire).
//   - Readers never lock. They load the shard's published view (an
//     atomic.Pointer to an immutable epoch struct naming the tables),
//     probe it with plain loads, and validate the sequence counter was
//     even and unchanged across the probe. A torn probe is retried within
//     a budget (nine attempts of a Get, two probes of a batched read's
//     shard range), then the read finishes under the writer lock, so
//     reads are wait-free in the common case and always make progress.
//
// The probe kernels this engine stripes are memory-bound (the paper's
// central measurement); the old per-shard RWMutex put two lock-word RMWs
// — and, across cores, a coherence miss — in front of every read. The
// seqlock read path replaces them with two loads of a shard-local word
// that only writers dirty, so read scaling is bounded by the tables, not
// the concurrency layer. See view.go for the full reader/writer protocol
// and the per-shard snapshot semantics; race-detector builds route reads
// through the lock (read_racedetector.go explains why).
//
// Cross-shard batch operations scatter the key column per shard in one
// stable pass, execute shard-major so each shard's sequence is validated
// (reads) or its lock taken (writes) once per batch, and gather results
// back to the callers' lanes in input order. The staging comes from a
// pool, one per call in flight, so a steady-state batch allocates nothing;
// and both directions run a steady-state shard's range through its table's
// own batched pipeline (the tables' GetBatch writes nothing they own, so
// it runs inside the readers' unvalidated window; see batch.go and
// readRange).
//
// # Incremental resize
//
// The schemes' own growth path is a stop-the-world rehash: the mutation
// that crosses the load threshold pays for re-inserting every live entry.
// Under concurrent traffic that is a tail-latency spike proportional to
// the shard size. Engine disables scheme-level growth and grows shards
// itself, incrementally:
//
//   - When a shard crosses the configured threshold, the engine allocates
//     the next-power-of-two successor table and FREEZES the old one: from
//     that point no write ever touches the old table again. New and
//     updated values go to the successor; keys deleted, or changed, while
//     live in the old table are recorded in a small overlay of dead keys.
//   - Because the old table is immutable, a resumable cursor over it is
//     safe. Every subsequent mutation on the shard first migrates a
//     bounded chunk of entries (Config.MigrationChunk) from the cursor
//     into the successor, then applies itself. Reads ask the frozen table
//     (minus the dead overlay) first, then the successor.
//   - When the cursor is exhausted the successor becomes the shard's
//     table and the frozen one is dropped wholesale.
//
// Every write but a delete goes through one locked path, rmwLocked: Put,
// GetOrPut and Upsert, and a batch's keys wherever its table's pipeline
// cannot run (a migrating shard, or a refused range). A steady shard's
// write is its table's own Put, GetOrPut or Upsert. A migrating shard's is
// one successor Upsert, whose callback (bound once per shard, so nothing
// is allocated) asks the frozen table minus the dead overlay about a key
// the successor lacks, and the write then marks a frozen entry whose value
// it changed dead.
//
// The cursor is one integer, the position Table.RangeFrom stopped at: a
// frozen table never changes, so there is no goroutine, nothing to stop,
// and an engine dropped mid-resize is ordinary garbage. A step collects
// its chunk into a buffer the shard reuses, then places it; the successor
// shares the frozen table's seed, so the inserts land in slot order.
//
// The dead overlay is sized for what a resize sees — it lasts about
// capacity/MigrationChunk mutations, so few keys die during one — not for
// what it could see: a few KiB that stay in cache under the step's
// per-entry check, doubled by republishing the view in the rare resize
// that outgrows them (see deadSet).
//
// Each transition (freeze, promote, rebuild) republishes the shard's
// view inside the writer's seqlock window, so readers move between
// epochs atomically. No operation ever pays a full-shard rehash; the
// worst-case mutation cost is one bounded migration chunk plus the
// operation itself (see BenchmarkResizeTail). The successor is sized so
// that migration always completes before it can itself fill: each
// mutation moves at least one entry, so at most capacity(old) mutations
// run against a successor with capacity(old) spare slots beyond the
// threshold.
//
// # Graceful degradation
//
// Every table allocation — construction, the 2x successor, rebuilds —
// goes through one fallible chokepoint. When allocating a successor
// fails, the shard does not fail with it: it enters a degraded-but-
// serving state on its frozen current table. Reads, deletes, and
// in-place updates keep working; only inserts that genuinely need new
// slots surface a typed *DegradedError (wrapping the table's refusal,
// so errors.Is(err, table.ErrFull) still holds). Subsequent mutations
// retry the allocation under seeded exponential backoff with per-shard
// jitter, and the shard heals in place the moment an allocation
// succeeds (or the pressure recedes below the growth threshold).
// Stats() exposes the degraded-shard count and the failure/retry
// counters.
//
// # Concurrency contract
//
// Every Engine method is safe for arbitrary concurrent use. Point and
// batched operations are linearizable per key: each key lives in exactly
// one shard, whose writers are serialized by its lock, and a validated
// wait-free read is a point-in-time observation of that shard (see
// view.go). Get, GetBatch and Len take no locks at all — readers never
// block writers, and a read that keeps colliding with writer windows
// (readMaxRetries torn attempts of a Get, readRangeDiscards discarded
// probes of a GetBatch range) finishes under the writer lock instead of
// spinning forever. There is no cross-shard snapshot: Len, Stats and
// iteration observe one shard at a time and may observe different shards
// at different instants. Range and ForEachTable hold the shard's writer
// lock while they visit it (their callbacks must observe a quiescent
// shard exactly once, which the optimistic protocol cannot promise).
// Callbacks passed to Upsert/UpsertBatch/Range/All run while a shard
// lock is held and must not call back into the engine.
package shard

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/exec"
	"repro/hashfn"
	"repro/internal/fault"
	"repro/internal/prng"
	"repro/obs"
)

// Table is the operation set Engine needs from each shard's table, and the
// one contract every scheme of package table implements: table.Table is
// this interface. Declaring it here is what lets table.Handle delegate to
// an Engine without an import cycle. The mutations report the table's
// ErrFull when a growth-disabled table is out of room, and never grow it;
// a batch stops at the failing pair, with earlier pairs applied.
type Table interface {
	Get(key uint64) (uint64, bool)
	Delete(key uint64) bool
	// Put inserts or updates key -> val and reports whether key was new.
	Put(key, val uint64) (inserted bool, err error)
	// GetOrPut returns the value stored under key (loaded true), or stores
	// val and returns it: one probe sequence either way.
	GetOrPut(key, val uint64) (actual uint64, loaded bool, err error)
	// Upsert stores fn(old, exists) under key and returns it, in one probe
	// sequence. fn must not touch the table.
	Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error)
	// GetBatch, like Get, runs inside the wait-free readers' unvalidated
	// window: it must write nothing the table owns, be safe for
	// concurrent callers, and terminate on contents a racing writer has
	// half changed (its answer is then discarded).
	GetBatch(keys, vals []uint64, ok []bool) int
	// PutBatch, GetOrPutBatch and UpsertBatch apply their scalar forms in
	// slice order and return the number of keys inserted. out and loaded
	// receive GetOrPut's results (out may alias vals), or are both nil;
	// UpsertBatch passes fn each key's lane index.
	PutBatch(keys, vals []uint64) (inserted int, err error)
	GetOrPutBatch(keys, vals, out []uint64, loaded []bool) (inserted int, err error)
	UpsertBatch(keys []uint64, fn func(lane int, old uint64, exists bool) uint64) (inserted int, err error)
	Len() int
	// Capacity is the slot count: directory slots for a chained table,
	// all subtables' slots for Cuckoo.
	Capacity() int
	MemoryFootprint() uint64
	// Range calls fn for every entry until fn returns false, in no
	// particular order. The table must not be mutated meanwhile.
	Range(fn func(key, val uint64) bool)
	// RangeFrom is the resumable Range behind the migration cursor: it
	// visits entries from position pos (0 starts a walk) until fn returns
	// false and returns where to resume; a call in which fn never did
	// ends the walk. Positions hold while the table is not mutated. A
	// chained scheme hands fn the rest of the chain fn returned false in.
	RangeFrom(pos int, fn func(key, val uint64) bool) (next int)
	// Name is the paper's scheme name ("LP", "RH", "CuckooH4", ...).
	Name() string
}

// DefaultMigrationChunk is the number of frozen-table entries a mutation
// migrates when Config.MigrationChunk is zero: large enough to finish a
// migration in a small fraction of the mutations that fit the successor,
// small enough to stay in the microsecond range per operation.
const DefaultMigrationChunk = 256

// routerSeedMix derives the router function's seed stream from the
// engine seed; it must stay independent of the per-shard table seeds.
const routerSeedMix = 0x9a77_e4b0_0f00_d001

// shardSeedStep spaces the per-shard table seeds (golden-ratio step).
const shardSeedStep = 0x9e3779b97f4a7c15

// maxBackoff caps a degraded shard's retry window: at most this many
// mutations pass between allocator retries, however long the allocator
// has been failing.
const maxBackoff = 256

// jitterSeedMix derives the per-shard backoff-jitter stream from the
// shard's table seed, independent of the hashing streams.
const jitterSeedMix = 0x5bd1_e995_7b93_b1a9

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of shards, rounded up to a power of two
	// (minimum 1). A good default for N concurrent goroutines is the
	// power of two >= 2N.
	Shards int
	// Capacity is the initial TOTAL slot capacity, split evenly across
	// shards.
	Capacity int
	// GrowAt is the per-shard load factor at which incremental resize
	// begins. Zero disables growth entirely: mutations on a full shard
	// then surface the table's ErrFull. Values must be < 1.
	GrowAt float64
	// Family is the hash-function class the ROUTER is drawn from
	// (default Mult). The per-shard tables hash with their own functions,
	// configured by whatever NewTable builds; the router is seeded from
	// an independent stream so its bits are uncorrelated with theirs.
	Family hashfn.Family
	// Seed derives the router and the per-shard table seeds. Two engines
	// built from the same Config are identical.
	Seed uint64
	// MigrationChunk bounds the entries migrated per mutation during a
	// resize (default DefaultMigrationChunk).
	MigrationChunk int
	// NewTable builds one shard's table with the given slot capacity and
	// seed. It is called Shards times at construction and once per
	// resize. The tables it returns must have scheme-level growth
	// DISABLED (the engine grows shards itself); the engine mutates them
	// only under the shard's writer lock, and wait-free readers probe
	// them through the seqlock protocol. Required.
	NewTable func(capacity int, seed uint64) (Table, error)
}

// kv is one frozen-table entry the migration cursor is past: in the
// step's buffer, or parked on the carry list because the successor refused
// it (or an entry ahead of it). It still lives (readable) in the frozen
// table, so a failed rebuild can never lose it.
type kv struct{ k, v uint64 }

// shardState is one shard: the published read view plus the writer-side
// state. Structural read state (tables, dead overlay, degraded flag)
// lives in the view — the single source of truth for readers AND
// writers; everything else here is either atomic (seq, live) or
// writer-private under mu (cursor, carry, backoff).
type shardState struct {
	// mu serializes writers. Readers touch it only on the bounded-retry
	// fallback path (and in race-detector builds); everyone through acquire.
	mu sync.Mutex
	// seq is the shard's seqlock word: odd while a writer is inside its
	// mutation window, bumped on entry and exit (lockShard/unlockShard).
	seq atomic.Uint64
	// view is the published epoch readers probe; see view.go.
	view atomic.Pointer[view]
	// live counts live entries (engine-maintained; cur+next dedup'd).
	// Atomic so Len is one wait-free load per shard.
	live atomic.Int64

	seed   uint64  // table seed, reused for every successor generation
	idx    int     // shard index (for DegradedError)
	eng    *Engine // the owner, for acquire's park accounting
	jitter *prng.SplitMix64

	// Migration cursor state, meaningful while a resize is in flight.
	// (The successor table and dead overlay live in the view.)
	pos     int                    // where the frozen table's RangeFrom resumes
	buf     []kv                   // the step's collected chunk, reused across steps
	collect func(k, v uint64) bool // RangeFrom callback filling buf; built once with it, so a step allocates nothing
	carry   []kv                   // cursor entries the successor refused (see advance)

	// The rmwLocked call in flight, as rmw reads and records it. rmw is
	// rmwStep bound once with the shard, so a write allocates no closure.
	rmw      func(old uint64, exists bool) uint64
	key, val uint64
	put      bool
	fn       func(old uint64, exists bool) uint64
	old      uint64 // what the key held, when existed
	existed  bool

	// Degraded-state retry scheduling; zero when the allocator is
	// healthy. (The degraded flag itself lives in the view.)
	backoff int // current retry window (mutations), doubles per failure
	retryIn int // mutations left before the next allocator retry
}

// Engine is the sharded concurrent engine. See the package documentation
// for the architecture and the concurrency contract. The zero value is
// not usable; construct with New.
type Engine struct {
	shards []shardState
	router hashfn.Function
	shift  uint // 64 - log2(len(shards))
	growAt float64
	chunk  int
	label  string // shard-0 table name, cached at construction (lock-free Name)
	create func(capacity int, seed uint64) (Table, error)

	migStarted atomic.Uint64
	migDone    atomic.Uint64
	migMoved   atomic.Uint64
	migChunks  atomic.Uint64
	migNanos   atomic.Uint64
	rebuilds   atomic.Uint64

	allocFails   atomic.Uint64
	allocRetries atomic.Uint64

	// Wait-free read-path accounting: discarded probes, falls back to the
	// writer lock, view publications, lock waits that slept (see view.go).
	readRetries   atomic.Uint64
	readFallbacks atomic.Uint64
	viewPublishes atomic.Uint64
	lockParks     atomic.Uint64

	// metrics is the optional telemetry attachment (SetMetrics); nil —
	// the default — keeps every hook to one atomic pointer load.
	metrics atomic.Pointer[Metrics]
}

// parallelOpenSlots is the per-shard capacity — 1 MiB of 16-byte slots —
// from which clearing a shard's first table is worth a transient pool.
const parallelOpenSlots = 1 << 16

// New builds an Engine from cfg. Several shards of parallelOpenSlots slots
// or more get their first tables allocated as exec.RunTasks tasks, calling
// NewTable concurrently (as resizes of different shards already do); the
// birth views are published serially either way.
func New(cfg Config) (*Engine, error) {
	if cfg.NewTable == nil {
		return nil, fmt.Errorf("shard: Config.NewTable is required")
	}
	if cfg.GrowAt < 0 || cfg.GrowAt >= 1 {
		return nil, fmt.Errorf("shard: grow threshold %v outside [0, 1); use 0 to disable growth", cfg.GrowAt)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("shard: negative capacity %d", cfg.Capacity)
	}
	p := cfg.Shards
	if p < 1 {
		p = 1
	}
	p = 1 << uint(bits.Len(uint(p-1)))
	family := cfg.Family
	if family == nil {
		family = hashfn.MultFamily{}
	}
	chunk := cfg.MigrationChunk
	if chunk <= 0 {
		chunk = DefaultMigrationChunk
	}
	e := &Engine{
		shards: make([]shardState, p),
		router: family.New(cfg.Seed ^ routerSeedMix),
		shift:  uint(64 - bits.TrailingZeros(uint(p))),
		growAt: cfg.GrowAt,
		chunk:  chunk,
		create: cfg.NewTable,
	}
	perShard := cfg.Capacity / p
	tables := make([]Table, p)
	open := func(_, i int) (err error) {
		s := &e.shards[i]
		s.idx, s.eng, s.rmw = i, e, s.rmwStep
		s.seed = cfg.Seed + uint64(i)*shardSeedStep
		s.jitter = prng.NewSplitMix64(s.seed ^ jitterSeedMix)
		tables[i], err = e.allocTable(perShard, s.seed)
		return err
	}
	var err error
	if p > 1 && perShard >= parallelOpenSlots {
		err = exec.RunTasks(exec.Config{}, p, open)
	} else {
		for i := 0; i < p && err == nil; i++ {
			err = open(0, i)
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range e.shards {
		// Even the birth epoch goes through the publication chokepoint,
		// inside a (trivially uncontended) seqlock window.
		s := &e.shards[i]
		s.lockShard()
		e.publish(s, &view{cur: tables[i]})
		s.unlockShard()
	}
	e.label = e.shards[0].view.Load().cur.Name()
	return e, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Name identifies the engine, e.g. "Sharded[8xRHMult]". The table label
// is cached at construction, so Name is lock-free and safe concurrently
// with migrations swapping shard tables.
func (e *Engine) Name() string {
	return fmt.Sprintf("Sharded[%dx%s]", len(e.shards), e.label)
}

// shardFor returns the shard owning key.
func (e *Engine) shardFor(key uint64) *shardState {
	if len(e.shards) == 1 {
		return &e.shards[0]
	}
	return &e.shards[e.router.Hash(key)>>e.shift]
}

// shardIndex returns the index of the shard owning key.
func (e *Engine) shardIndex(key uint64) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(e.router.Hash(key) >> e.shift)
}

// ---------------------------------------------------------------------------
// Reads (wait-free: no shard locks; see view.go and read.go)
// ---------------------------------------------------------------------------

// Get returns the value stored under key and whether it is present.
// Wait-free: no lock is taken unless the read keeps colliding with
// writer windows and falls back (see the package documentation).
func (e *Engine) Get(key uint64) (uint64, bool) {
	s := e.shardFor(key)
	m, start := e.opStart(key)
	v, ok := e.readGet(s, key)
	if m != nil {
		m.Get.Record(s.idx, obs.Now()-start)
	}
	return v, ok
}

// Len returns the number of live entries across all shards: one atomic
// load per shard, no locks. With concurrent writers the result is a
// per-shard-consistent sum, not a point-in-time snapshot (see view.go's
// snapshot semantics).
func (e *Engine) Len() int {
	var n int64
	for i := range e.shards {
		n += e.shards[i].live.Load()
	}
	return int(n)
}

// Capacity returns the total slot capacity across shards; a migrating
// shard counts its successor's capacity (the one being filled).
func (e *Engine) Capacity() int {
	n := 0
	for i := range e.shards {
		var c int
		e.readSnapshot(&e.shards[i], func(v *view) {
			if v.next != nil {
				c = v.next.Capacity()
			} else {
				c = v.cur.Capacity()
			}
		})
		n += c
	}
	return n
}

// LoadFactor returns Len/Capacity.
func (e *Engine) LoadFactor() float64 {
	return float64(e.Len()) / float64(e.Capacity())
}

// MemoryFootprint returns the total bytes across shards, counting both
// tables of a migrating shard.
func (e *Engine) MemoryFootprint() uint64 {
	var n uint64
	for i := range e.shards {
		var b uint64
		e.readSnapshot(&e.shards[i], func(v *view) {
			b = v.cur.MemoryFootprint()
			if v.next != nil {
				b += v.next.MemoryFootprint()
			}
		})
		n += b
	}
	return n
}

// ---------------------------------------------------------------------------
// Incremental migration machinery (inside the writer's seqlock window)
// ---------------------------------------------------------------------------

// allocTable is the one chokepoint every table allocation goes through —
// construction, successor allocation, and rebuilds — so a failing
// NewTable factory (or the armed fault injector's Alloc kind) exercises
// every degradation path.
func (e *Engine) allocTable(capacity int, seed uint64) (Table, error) {
	if fault.Should(fault.Alloc) {
		return nil, fmt.Errorf("shard: allocating %d-slot table: %w", capacity, fault.ErrInjected)
	}
	return e.create(capacity, seed)
}

// beginMigration freezes the shard's table and publishes the epoch with
// the successor and the dead-key overlay installed. The successor is
// sized from LIVE ENTRIES with the frozen capacity as a floor: at the
// growth threshold that is the classic doubling, but a refusal-driven
// migration far below the threshold (a failed Cuckoo kick chain, or an
// injected refusal) gets a same-capacity successor instead of an
// unconditional doubling — repeated transient refusals must not inflate
// capacity without live entries to justify it. The overlay starts at its
// fixed floor whatever the frozen table's size; markDead doubles it by
// republication in the rare resize that outgrows that.
func (e *Engine) beginMigration(s *shardState) error {
	v := s.view.Load()
	ga := e.growAt
	if ga <= 0 {
		ga = 0.85
	}
	capacity := v.cur.Capacity()
	frozenLive := v.cur.Len()
	for float64(frozenLive) >= ga*float64(capacity) {
		capacity *= 2
	}
	nt, err := e.allocTable(capacity, s.seed)
	if err != nil {
		return err
	}
	if s.collect == nil { // the shard's first resize; kept from here on
		s.buf = make([]kv, 0, e.chunk)
		s.collect = func(k, v uint64) bool {
			s.buf = append(s.buf, kv{k, v})
			return len(s.buf) < e.chunk
		}
	}
	s.pos = 0
	e.publish(s, &view{cur: v.cur, next: nt, dead: newDeadSet(), degraded: v.degraded})
	e.migStarted.Add(1)
	return nil
}

// finishMigration publishes the epoch that promotes the successor and
// drops the frozen table.
func (e *Engine) finishMigration(s *shardState) {
	v := s.view.Load()
	e.publish(s, &view{cur: v.next, degraded: v.degraded})
	e.migDone.Add(1)
}

// advance migrates one chunk of cursor entries into the successor.
// Entries the overlay marks dead are skipped; entries already written to
// the successor (updated or re-inserted since the freeze) keep the
// successor's value — GetOrPut never overwrites.
//
// Failures never abort the mutation hosting the migration step: a
// successor refusal parks the refused entry and the unplaced rest of the
// step's buffer on the carry list (they are still readable in the frozen
// table) and falls back to a rebuild, and a failed rebuild allocation
// leaves the shard degraded-but-serving. The migration can only finish
// once the carry list is empty — the carry loop runs before the cursor
// moves — so a failed rebuild can never lose an entry the cursor is
// already past.
func (e *Engine) advance(s *shardState) {
	if !s.view.Load().migrating() {
		return
	}
	// Chunk accounting only runs while a resize is in flight, so the
	// steady-state mutation path keeps its zero-cost early return above;
	// during a migration two clock reads vanish under the chunk's moves.
	start := obs.Now()
	e.migMoved.Add(uint64(e.advanceChunk(s)))
	dur := obs.Now() - start
	e.migChunks.Add(1)
	e.migNanos.Add(uint64(dur))
	if m := e.metrics.Load(); m != nil {
		m.MigrationChunk.Record(s.idx, dur)
	}
}

// advanceChunk is advance's working body: the carry retry loop, then one
// chunk of MigrationChunk entries collected from the cursor (dead ones
// counted) and placed in order. It returns how many entries it moved. The
// view it loads stays current throughout: the only republications it can
// trigger (finishMigration, tryRebuild) are immediately followed by a
// return.
func (e *Engine) advanceChunk(s *shardState) (moved int) {
	fault.MaybeStall()
	v := s.view.Load()
	for len(s.carry) > 0 {
		c := s.carry[0]
		if !v.dead.has(c.k) {
			_, loaded, err := v.next.GetOrPut(c.k, c.v)
			if err != nil {
				// Still refused: only a rebuild can place it. Honor the
				// degraded backoff when a previous rebuild allocation failed.
				if !v.degraded || e.retryDue(s) {
					e.tryRebuild(s)
				}
				return moved
			}
			if !loaded {
				moved++
			}
		}
		s.carry = s.carry[1:]
	}
	s.buf = s.buf[:0]
	s.pos = v.cur.RangeFrom(s.pos, s.collect)
	exhausted := len(s.buf) < e.chunk
	for i, c := range s.buf {
		if v.dead.has(c.k) {
			continue
		}
		var (
			loaded bool
			err    error
		)
		if fault.Should(fault.Full) {
			err = fmt.Errorf("migration step for key %#x: %w", c.k, fault.ErrInjected)
		} else {
			_, loaded, err = v.next.GetOrPut(c.k, c.v)
		}
		if err != nil {
			// The successor refused the key (a Cuckoo kick chain can fail
			// below any load threshold — or the refusal was injected).
			// Park it with the rest of the buffer and stop this step: the
			// carry loop retries on the next mutation and escalates to a
			// rebuild only if the key is refused AGAIN.
			s.carry = append(s.carry[:0], s.buf[i:]...)
			return moved
		}
		if !loaded {
			moved++
		}
	}
	if exhausted {
		e.finishMigration(s)
	}
	return moved
}

// maybeGrow starts a migration when s has crossed the threshold. The
// growth is pre-emptive, so an allocator failure here is absorbed — the
// hosting mutation already succeeded — and the shard degrades instead.
func (e *Engine) maybeGrow(s *shardState) {
	v := s.view.Load()
	if e.growAt <= 0 || v.migrating() || v.degraded {
		return
	}
	if float64(v.cur.Len()) < e.growAt*float64(v.cur.Capacity()) {
		return
	}
	if err := e.beginMigration(s); err != nil {
		e.enterDegraded(s)
	}
}

// enterDegraded records an allocator failure: the shard keeps serving
// from its current state (the degraded flag is republished so lock-free
// observers see it) and the next retry is scheduled with seeded
// exponential backoff plus per-shard jitter (so shards that failed
// together do not hammer a struggling allocator in lockstep).
func (e *Engine) enterDegraded(s *shardState) {
	e.allocFails.Add(1)
	v := s.view.Load()
	if !v.degraded {
		s.backoff = 1
		if m := e.metrics.Load(); m != nil {
			m.DegradedEnter.Inc(s.idx)
		}
		nv := *v
		nv.degraded = true
		e.publish(s, &nv)
	} else if s.backoff < maxBackoff {
		s.backoff *= 2
	}
	s.retryIn = s.backoff + int(s.jitter.Next()%uint64(s.backoff))
}

// heal clears a shard's degraded state — the single exit point of the
// degraded-but-serving mode, so the heal transition is counted exactly
// once however the shard recovered (pressure receded, retry succeeded,
// or a rebuild landed). Calling it on a healthy shard (tryRebuild on a
// non-degraded shard) is a no-op beyond re-zeroing zero fields.
func (e *Engine) heal(s *shardState) {
	v := s.view.Load()
	if v.degraded {
		if m := e.metrics.Load(); m != nil {
			m.Healed.Inc(s.idx)
		}
		nv := *v
		nv.degraded = false
		e.publish(s, &nv)
	}
	s.backoff, s.retryIn = 0, 0
}

// retryDue ticks a degraded shard's backoff window (one tick per
// mutation) and reports whether an allocator retry is due now.
func (e *Engine) retryDue(s *shardState) bool {
	if s.retryIn > 0 {
		s.retryIn--
		return false
	}
	e.allocRetries.Add(1)
	return true
}

// degradedTick runs once per mutation on a degraded shard without a
// successor: if the pressure receded below the growth threshold the
// shard simply heals; otherwise, once the backoff window has elapsed,
// it retries the successor allocation and heals on success.
func (e *Engine) degradedTick(s *shardState) {
	v := s.view.Load()
	if !v.degraded || v.migrating() {
		return
	}
	if float64(v.cur.Len()) < e.growAt*float64(v.cur.Capacity()) {
		e.heal(s)
		return
	}
	if !e.retryDue(s) {
		return
	}
	if err := e.beginMigration(s); err != nil {
		e.enterDegraded(s)
		return
	}
	e.heal(s)
}

// growForRefusal starts a migration in response to a table refusal.
// When the shard is already degraded (this mutation's retry, if due,
// already ran in degradedTick) or the allocation fails, it converts the
// refusal into a typed *DegradedError; on success the caller proceeds
// onto the freshly installed successor. The batched pipelines drop the
// error: they re-apply a refused range key by key, which reports per-key
// outcomes.
func (e *Engine) growForRefusal(s *shardState, refusal error) error {
	if s.view.Load().degraded {
		return &DegradedError{Shard: s.idx, Err: refusal}
	}
	if err := e.beginMigration(s); err != nil {
		e.enterDegraded(s)
		return &DegradedError{Shard: s.idx, Err: refusal}
	}
	return nil
}

// Drain drives every shard's deferred work — in-flight incremental
// migrations, parked carry entries, and degraded-state allocator retries
// — to completion without waiting for organic mutations to tick it
// forward, and reports whether every shard ended idle (neither migrating
// nor degraded). It is the maintenance hook for the degraded state: once
// the table allocator recovers, one Drain call heals the engine instead
// of the next few hundred mutations. A false return means some shard is
// still degraded because its allocation kept failing even after sitting
// out the full backoff window several times; the shard keeps serving and
// a later Drain (or organic mutation load) will retry.
//
// Drain takes each shard's writer lock in turn, so it may briefly block
// concurrent mutations shard by shard, but never the whole engine (and
// never its wait-free readers).
func (e *Engine) Drain() bool {
	idle := true
	for i := range e.shards {
		s := &e.shards[i]
		s.lockShard()
		// Budget: the deepest backoff window (maxBackoff plus equal
		// jitter) a few times over, plus several full migrations' worth
		// of advances — enough for heal → grow → finish, never enough to
		// spin forever on a permanently failing allocator.
		v := s.view.Load()
		budget := 16*maxBackoff + 8*(v.cur.Capacity()/e.chunk+2)
		for it := 0; it < budget; it++ {
			v = s.view.Load()
			if !v.migrating() && !v.degraded {
				break
			}
			e.advance(s)
			e.degradedTick(s)
		}
		v = s.view.Load()
		if v.migrating() || v.degraded {
			idle = false
		}
		s.unlockShard()
	}
	return idle
}

// tryRebuild is rebuild with degraded-state accounting: a failed
// allocation flips the shard into the degraded state (carry and cursor
// intact), success heals it.
func (e *Engine) tryRebuild(s *shardState) bool {
	if err := e.rebuild(s); err != nil {
		e.enterDegraded(s)
		return false
	}
	e.heal(s)
	return true
}

// rebuild is the pathological-path escape hatch: when the successor itself
// refuses an insert mid-migration, the shard is rebuilt stop-the-world
// into a fresh table (doubling until everything fits). This is the only
// path that pays a full-shard copy; it is unreachable for the probing and
// chained schemes (their growth-disabled tables refuse only when 100%
// full, which the threshold prevents) and requires a failed kick chain
// for Cuckoo.
func (e *Engine) rebuild(s *shardState) error {
	v := s.view.Load()
	capacity := v.cur.Capacity() * 2
	if v.next != nil {
		capacity = v.next.Capacity() * 2
	}
	for {
		nt, err := e.allocTable(capacity, s.seed)
		if err != nil {
			return err
		}
		ok := true
		if v.next != nil {
			v.next.Range(func(k, val uint64) bool {
				if _, err = nt.Put(k, val); err != nil {
					ok = false
				}
				return ok
			})
		}
		if ok {
			v.cur.Range(func(k, val uint64) bool {
				if v.dead.has(k) {
					return true
				}
				// Keep-first: a key already copied from the successor holds
				// the value its live frozen entry holds.
				if _, _, err = nt.GetOrPut(k, val); err != nil {
					ok = false
				}
				return ok
			})
		}
		if !ok {
			capacity *= 2
			continue
		}
		e.publish(s, &view{cur: nt, degraded: v.degraded})
		s.carry = nil // every entry (carried or not) is in the rebuilt table
		e.rebuilds.Add(1)
		return nil
	}
}

// ---------------------------------------------------------------------------
// Mutations (writer lock + seqlock window)
// ---------------------------------------------------------------------------

// Put inserts or updates key -> val, reporting whether the key was newly
// inserted. With growth enabled the error is always nil; with GrowAt zero
// a full shard surfaces the table's ErrFull.
func (e *Engine) Put(key, val uint64) (bool, error) {
	_, existed, err := e.write(key, val, true, nil)
	return err == nil && !existed, err
}

// GetOrPut returns the value stored under key if present (loaded true);
// otherwise it inserts val and returns it (loaded false). One probe
// sequence in the steady state; during a migration a successor miss adds
// one probe of the frozen table.
func (e *Engine) GetOrPut(key, val uint64) (actual uint64, loaded bool, err error) {
	return e.write(key, val, false, nil)
}

// Upsert applies fn to the value stored under key (exists true) or to
// (0, false) when absent, stores the result, and returns it. fn runs under
// the shard's writer lock and must not call back into the engine. fn is
// invoked exactly once per call.
func (e *Engine) Upsert(key uint64, fn func(old uint64, exists bool) uint64) (uint64, error) {
	nv, _, err := e.write(key, 0, false, fn)
	return nv, err
}

// write is the scalar writers' body: rmwLocked under the shard's lock,
// timed into the mode's histogram when sampled.
func (e *Engine) write(key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error) {
	s := e.shardFor(key)
	m, start := e.opStart(key)
	s.lockShard()
	nv, existed, err := e.rmwLocked(s, key, val, overwrite, fn)
	s.unlockShard()
	if m != nil {
		h := m.GetOrPut
		if fn != nil {
			h = m.Upsert
		} else if overwrite {
			h = m.Put
		}
		h.Record(s.idx, obs.Now()-start)
	}
	return nv, existed, err
}

// rmwLocked is the one write path under the shard's lock, with the tables'
// rmwHashed mode rule: Upsert when fn is set, else Put when overwrite, else
// GetOrPut. It returns the value it leaves under key and whether the key
// was there before, and like every mutation it first advances the
// migration and ticks the degraded backoff.
//
// A steady shard's write is its table's own Put, GetOrPut or Upsert. A
// refused one (the table full, a failed Cuckoo kick chain below the
// threshold, or an injected refusal, which does not imply absence) grows
// the shard and goes on as a migrating write: the frozen table is
// read-only, so that is one successor Upsert through s.rmw, which asks the
// frozen table minus the dead overlay about a key the successor lacks. The
// callback is thus handed the key's current value.
func (e *Engine) rmwLocked(s *shardState, key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error) {
	e.advance(s)
	e.degradedTick(s)
	v := s.view.Load()
	if !v.migrating() {
		var (
			nv      uint64
			existed bool
			err     error
		)
		if fault.Should(fault.Full) {
			err = fmt.Errorf("write %#x: %w", key, fault.ErrInjected)
		} else {
			nv, existed, err = s.steadyWrite(v.cur, key, val, overwrite, fn)
		}
		if err == nil {
			if !existed {
				s.live.Add(1)
				e.maybeGrow(s)
			}
			return nv, existed, nil
		}
		if e.growAt <= 0 {
			return 0, false, err
		}
		if derr := e.growForRefusal(s, err); derr != nil {
			return 0, false, derr
		}
		v = s.view.Load() // the epoch with the successor installed
	}
	nv, err := s.upsert(v.next, key, val, overwrite, fn)
	if err != nil {
		if !e.tryRebuild(s) {
			return 0, false, &DegradedError{Shard: s.idx, Err: err}
		}
		// The successor refused before calling fn, and the rebuilt table
		// holds every live entry: the retry is a steady write.
		nv, existed, err := s.steadyWrite(s.view.Load().cur, key, val, overwrite, fn)
		if err == nil && !existed {
			s.live.Add(1)
		}
		return nv, existed, err
	}
	if !s.existed {
		s.live.Add(1)
	} else if nv != s.old {
		// A live frozen entry holds the value the key held, and readers ask
		// the frozen table first: a changed value makes it dead.
		if _, live := v.curLive(key); live {
			e.markDead(s, key)
		}
	}
	return nv, s.existed, nil
}

// steadyWrite is a write into t, the one table of a shard not migrating:
// t's own Put or GetOrPut, or its Upsert through s.rmw.
func (s *shardState) steadyWrite(t Table, key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, bool, error) {
	switch {
	case fn != nil:
		nv, err := s.upsert(t, key, val, overwrite, fn)
		return nv, s.existed, err
	case overwrite:
		ins, err := t.Put(key, val)
		return val, !ins, err
	}
	return t.GetOrPut(key, val)
}

// upsert is t.Upsert through s.rmw, handed the write's arguments in s.
func (s *shardState) upsert(t Table, key, val uint64, overwrite bool, fn func(old uint64, exists bool) uint64) (uint64, error) {
	s.key, s.val, s.put, s.fn = key, val, overwrite, fn
	nv, err := t.Upsert(key, s.rmw)
	s.fn = nil // keep nothing of the caller's alive
	return nv, err
}

// rmwStep is s.rmw: the write's mode applied to what the key holds, which
// it records in s. On a migrating shard a key the successor lacks may still
// live in the frozen table; its value then moves to the successor in the
// same probe sequence (eager migration).
func (s *shardState) rmwStep(old uint64, exists bool) uint64 {
	if v := s.view.Load(); !exists && v.migrating() {
		old, exists = v.curLive(s.key)
	}
	s.old, s.existed = old, exists
	switch {
	case s.fn != nil:
		return s.fn(old, exists)
	case exists && !s.put:
		return old
	}
	return s.val
}

// markDead marks dead the frozen entry of key, which the caller saw live.
func (e *Engine) markDead(s *shardState, key uint64) {
	v := s.view.Load()
	if v.dead.full() {
		// Never in place: this epoch's readers keep probing the old array.
		nv := *v
		nv.dead = v.dead.grown()
		e.publish(s, &nv)
		v = &nv
	}
	v.dead.add(key)
}

// Delete removes key, reporting whether it was present.
func (e *Engine) Delete(key uint64) bool {
	s := e.shardFor(key)
	m, start := e.opStart(key)
	s.lockShard()
	// Deletes advance the migration and tick the degraded backoff too:
	// every mutation makes progress, and a delete that frees space can
	// heal a degraded shard outright (the pressure-receded path).
	e.advance(s)
	e.degradedTick(s)
	deleted := e.deleteLocked(s, key)
	s.unlockShard()
	if m != nil {
		m.Delete.Record(s.idx, obs.Now()-start)
	}
	return deleted
}

func (e *Engine) deleteLocked(s *shardState, key uint64) bool {
	v := s.view.Load()
	if !v.migrating() {
		if v.cur.Delete(key) {
			s.live.Add(-1)
			return true
		}
		return false
	}
	deleted := v.next.Delete(key)
	// The frozen table may hold the key live too (its only copy, or the
	// same value as the successor's); either way its entry is now dead.
	if _, ok := v.curLive(key); ok {
		e.markDead(s, key)
		deleted = true
	}
	if deleted {
		s.live.Add(-1)
	}
	return deleted
}
