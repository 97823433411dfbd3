package obs

import (
	"sync/atomic"
	"time"
)

// cacheLine is the assumed cache-line (and false-sharing) granularity.
const cacheLine = 64

// stripe is one cache-line-padded counter slot: the atomic word plus
// padding out to a full line, so adjacent stripes of one Counter (and
// adjacent Counters in a slice) never share a line.
type stripe struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a monotonic counter striped across cache-line-padded atomic
// slots. Writers pass a stripe hint — their worker, shard, or thread
// index — and increment only their own line, so concurrent recording is
// contention-free; readers sum the stripes. The zero value is not
// usable; construct with NewCounter.
type Counter struct {
	stripes []stripe
	mask    uint32
}

// NewCounter returns a Counter with the given number of stripes, rounded
// up to a power of two (minimum 1). Size stripes to the number of
// concurrent writers (workers, shards); hints beyond the stripe count
// wrap around, which stays correct but reintroduces sharing.
func NewCounter(stripes int) *Counter {
	n := 1
	for n < stripes {
		n <<= 1
	}
	return &Counter{stripes: make([]stripe, n), mask: uint32(n - 1)}
}

// Stripes returns the stripe count (a power of two).
func (c *Counter) Stripes() int { return len(c.stripes) }

// Add adds d to the stripe selected by hint.
func (c *Counter) Add(hint int, d uint64) {
	c.stripes[uint32(hint)&c.mask].v.Add(d)
}

// Inc increments the stripe selected by hint.
func (c *Counter) Inc(hint int) { c.Add(hint, 1) }

// Value returns the sum of all stripes. With concurrent writers the sum
// is per-stripe-consistent, not a point-in-time snapshot — exactly the
// consistency Stats() already offers across shards.
func (c *Counter) Value() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].v.Load()
	}
	return n
}

// ValueAt returns one stripe's value: the per-worker readout (e.g. a
// worker's busy nanos) when each writer owns its hint exclusively.
func (c *Counter) ValueAt(hint int) uint64 {
	return c.stripes[uint32(hint)&c.mask].v.Load()
}

// epoch is the process-global monotonic base for Now. Using one base for
// every subsystem makes timestamps from exec traces and shard migration
// timing directly comparable.
var epoch = time.Now()

// Now returns monotonic nanoseconds since the process epoch: the one
// timestamp source for every latency measurement and trace event in the
// repo. It costs one monotonic clock read (no wall-clock syscall on
// platforms with vDSO clocks).
func Now() int64 { return int64(time.Since(epoch)) }
