package decision_test

import (
	"fmt"

	"repro/decision"
	"repro/table"
)

// Size a handle for a number of goroutines that share it: one needs no
// striping, more get the power of two at least twice their count.
func ExampleShardsFor() {
	for _, threads := range []int{1, 2, 6, 8} {
		fmt.Printf("%d goroutines: ShardsFor = %d\n", threads, decision.ShardsFor(threads))
	}
	h := table.MustOpen(table.WithPartitions(decision.ShardsFor(6)))
	fmt.Println(h.Name())
	// Output:
	// 1 goroutines: ShardsFor = 0
	// 2 goroutines: ShardsFor = 4
	// 6 goroutines: ShardsFor = 16
	// 8 goroutines: ShardsFor = 16
	// Striped[16xRHMult]
}
