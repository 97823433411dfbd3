package main

// The reference clock. The sandbox runs the same memory-touching code up to
// 1.8× slower in some minutes than in others (neighbours on the host share
// the cache and the memory bus), on a scale of minutes — longer than a run
// may last — so no run length evens it out. Every timed interval is
// therefore bracketed by readings of one frozen reference kernel, and its
// wall time is divided by how much slower than nominal the kernel ran just
// then. A change to the library moves the corrected times exactly as it
// moves wall time; a slow minute of the machine moves them far less.

import (
	"fmt"

	"repro/exec"
)

const (
	// refCells sizes the reference table at 32 MiB, the size of the
	// workloads' larger tables: beyond the core's own caches, inside the
	// shared one when the neighbours are quiet.
	refCells = 1 << 22
	// refProbes is the number of lookups per thread and pass (≈5 ms); a
	// reading is the faster of two passes, so that one hiccup (a timer
	// tick, a descheduled thread) does not pass for a slow machine.
	refProbes = 200_000
)

// refNominalNs is the pass time the index is relative to, by thread count:
// a little more than the sandbox needs in a quiet hour, when the index reads
// 0.85–0.95. The constants only fix the scale of the corrected times;
// comparisons do not depend on them.
var refNominalNs = map[int]float64{1: 5.0e6, 2: 4.8e6}

// refClock is the reference kernel, its table and the latest reading.
type refClock struct {
	cells   []uint64
	threads int
	next    uint64 // the next pass's probe sequence
	sum     uint64 // keeps the reads alive

	last float64 // the latest reading
	// slowest and fastest are the extreme readings, for the report header.
	slowest, fastest float64
}

// newRefClock builds the table and takes the first reading.
func newRefClock(threads int) (*refClock, error) {
	c := &refClock{cells: make([]uint64, refCells), threads: threads}
	for i := range c.cells {
		c.cells[i] = mix(uint64(i))
	}
	first, err := c.reading()
	c.last, c.slowest, c.fastest = first, first, first
	return c, err
}

// refProbe is the frozen kernel, the skeleton of a hash-table lookup: mix a
// counter, read the cell it lands on and, one time in four, the next one.
func refProbe(cells []uint64, n int, s uint64) uint64 {
	var sum uint64
	mask := uint64(len(cells) - 1)
	for range n {
		s += 0x9e3779b97f4a7c15
		h := mix(s)
		v := cells[h&mask]
		if v&3 == 0 {
			v = cells[(h+1)&mask]
		}
		sum += v
	}
	return sum
}

// reading returns the machine's speed index: the faster of two passes of
// the kernel on every thread over the nominal pass, above 1 when the
// machine is slower than nominal.
func (c *refClock) reading() (float64, error) {
	sums := make([]uint64, c.threads)
	best := int64(0)
	for pass := range 2 {
		t0 := now()
		err := exec.RunTasks(exec.Config{Workers: c.threads}, c.threads, func(_, t int) error {
			sums[t] += refProbe(c.cells, refProbes, c.next+uint64(t)<<32)
			return nil
		})
		ns := now() - t0
		if err != nil {
			return 0, fmt.Errorf("reference reading: %w", err)
		}
		c.next++
		if pass == 0 || ns < best {
			best = ns
		}
	}
	for _, s := range sums {
		c.sum += s
	}
	return float64(best) / refNominalNs[c.threads], nil
}

// time runs fn, takes a reading, and returns fn's wall time in ns and the
// speed index to divide it by: the mean of the readings before and after.
func (c *refClock) time(fn func() error) (wall, speed float64, err error) {
	before := c.last
	t0 := now()
	err = fn()
	wall = float64(now() - t0)
	if err != nil {
		return 0, 0, err
	}
	if c.last, err = c.reading(); err != nil {
		return 0, 0, err
	}
	c.slowest, c.fastest = max(c.slowest, c.last), min(c.fastest, c.last)
	return wall, (before + c.last) / 2, nil
}
