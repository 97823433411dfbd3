package fault

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/prng"
)

// Kind enumerates the injection points compiled into the stack. Each
// kind has its own occurrence counter, so the fire/no-fire decision for
// the n-th occurrence of a kind depends only on (seed, kind, n) — never
// on scheduling.
type Kind uint8

const (
	// Full refuses a mutation as if the underlying table were full: at
	// the table.Handle entry points it synthesizes a *table.FullError,
	// inside the shard engine's locked paths it forces the
	// grow-on-refusal machinery (and, during migration, the
	// park-and-rebuild path) to run.
	Full Kind = iota
	// Panic panics an exec worker task; the pool must contain it and
	// return a typed *exec.PanicError instead of crashing the process.
	Panic
	// Stall delays a shard migration step by yielding the scheduler,
	// widening the window in which concurrent mutations observe a
	// half-migrated shard.
	Stall

	// NumKinds is the number of injection kinds.
	NumKinds = int(Stall) + 1
)

// String names the kind for counters and logs.
func (k Kind) String() string {
	switch k {
	case Full:
		return "full"
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	}
	return "unknown"
}

// ErrInjected is the root of every error the injector synthesizes.
// Chaos harnesses use errors.Is(err, fault.ErrInjected) to distinguish
// injected failures from organic ones.
var ErrInjected = errors.New("fault: injected failure")

// Config arms the injector with a deterministic fault schedule.
type Config struct {
	// Seed drives every fire/no-fire decision. The same seed and the
	// same per-kind occurrence index always decide the same way.
	Seed uint64
	// Rates holds the per-kind fire probability in [0,1]. A zero rate
	// disables the kind.
	Rates [NumKinds]float64
	// StallYields is how many scheduler yields one Stall hit performs
	// (default 8).
	StallYields int
}

// plan is an armed schedule. Rates are pre-scaled to uint64 thresholds
// so the hot-path decision is one hash and one compare.
type plan struct {
	seed      uint64
	threshold [NumKinds]uint64
	yields    int
	seen      [NumKinds]atomic.Uint64
	fired     [NumKinds]atomic.Uint64
}

// active is the armed plan; nil means disarmed. Every injection point
// costs exactly one atomic pointer load when disarmed.
var active atomic.Pointer[plan]

// Arm installs a fault schedule process-wide. Arm after building and
// pre-filling the structures under test, or an armed Full refuses the
// pre-fill too.
func Arm(cfg Config) {
	p := &plan{seed: cfg.Seed, yields: cfg.StallYields}
	if p.yields <= 0 {
		p.yields = 8
	}
	for k, r := range cfg.Rates {
		switch {
		case r <= 0:
			p.threshold[k] = 0
		case r >= 1:
			p.threshold[k] = math.MaxUint64
		default:
			p.threshold[k] = uint64(r * float64(math.MaxUint64))
		}
	}
	active.Store(p)
}

// Disarm removes the schedule; all injection points become no-ops.
func Disarm() { active.Store(nil) }

// Armed reports whether a schedule is installed.
func Armed() bool { return active.Load() != nil }

// Should reports whether the current occurrence of kind k fires. It is
// safe (and free beyond one atomic load) to call when disarmed.
func Should(k Kind) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	return p.should(k)
}

func (p *plan) should(k Kind) bool {
	th := p.threshold[k]
	if th == 0 {
		return false
	}
	n := p.seen[k].Add(1) - 1
	// Deterministic per (seed, kind, occurrence): SplitMix64 finalizer
	// over the three, compared against the pre-scaled rate threshold.
	if prng.Mix(p.seed^(uint64(k)+1)<<56^n) >= th {
		return false
	}
	p.fired[k].Add(1)
	return true
}

// MaybeStall yields the scheduler when the Stall kind fires, stretching
// the critical section it is called from. No-op when disarmed.
func MaybeStall() {
	p := active.Load()
	if p == nil {
		return
	}
	if !p.should(Stall) {
		return
	}
	for i := 0; i < p.yields; i++ {
		runtime.Gosched()
	}
}

// Counts is a snapshot of per-kind occurrence and fire counters.
type Counts struct {
	Seen  [NumKinds]uint64
	Fired [NumKinds]uint64
}

// Snapshot returns the armed plan's counters (zero when disarmed).
func Snapshot() Counts {
	var c Counts
	p := active.Load()
	if p == nil {
		return c
	}
	for k := 0; k < NumKinds; k++ {
		c.Seen[k] = p.seen[k].Load()
		c.Fired[k] = p.fired[k].Load()
	}
	return c
}
