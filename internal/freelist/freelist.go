// Package freelist lends run-sized scratch: what a finished run gives
// back, the next one takes.
package freelist

import (
	"runtime"
	"slices"
	"sync"
)

// List is a bounded stack of scratch items; the zero value is empty.
// Unlike a sync.Pool it is one stack for every P and a GC does not empty
// it, so a run finds what the last run gave back whichever P it wakes on.
// A run takes and gives back once, so its mutex is on no per-batch or
// per-call path; scratch taken per engine call (shard's batch staging) or
// inside the wait-free read window stays on sync.Pools, one stack a P,
// where one mutex would queue readers that run side by side. A List keeps
// at most 4×GOMAXPROCS items: two runs side by side on every P, each
// holding two batches a worker (a join's probe scan's and answers').
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Take removes and returns the most recently given item that passes fits
// (any item when fits is nil); ok is false when none does.
func (l *List[T]) Take(fits func(T) bool) (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.items) - 1; i >= 0; i-- {
		if fits == nil || fits(l.items[i]) {
			x = l.items[i]
			l.items = slices.Delete(l.items, i, i+1)
			return x, true
		}
	}
	return x, false
}

// Give pushes back the items that pass keep; the caller must not touch
// them again. A full list drops its oldest item for each one pushed, so an
// item no run takes ages out.
func (l *List[T]) Give(keep func(T) bool, items ...T) {
	bound := 4 * runtime.GOMAXPROCS(0)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, x := range items {
		if !keep(x) {
			continue
		}
		if over := len(l.items) + 1 - bound; over > 0 {
			l.items = slices.Delete(l.items, 0, over)
		}
		l.items = append(l.items, x)
	}
}
