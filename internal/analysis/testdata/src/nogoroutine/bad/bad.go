// Package bad hand-rolls a worker pool: the exact pattern PR 5 removed
// from join/agg/partition/workload when the exec pool became the one
// concurrency owner. Every primitive in it is a diagnostic.
package bad

import (
	"iter"
	"sync"
)

func fanOut(n int) int {
	var wg sync.WaitGroup          // want `sync\.WaitGroup outside exec/shard`
	results := make(chan int, n)   // want `raw channel construction outside exec/shard`
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { // want `go statement outside exec/shard`
			defer wg.Done()
			results <- i * i
		}(i)
	}
	wg.Wait()
	close(results)
	total := 0
	for r := range results {
		total += r
	}
	return total
}

// firstOf pulls one value out of a sequence and forgets to stop: the
// goroutine behind next stays parked in seq for good.
func firstOf(seq iter.Seq[int]) int {
	next, _ := iter.Pull(seq) // want `iter\.Pull starts a hidden goroutine`
	v, _ := next()
	return v
}
