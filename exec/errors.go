package exec

import "fmt"

// PanicError is a worker panic contained by the pool: instead of
// unwinding the process, a panicking task is recovered and surfaces
// through the first-error convention as a typed error carrying the task
// index, the panic value, and the stack at the point of the panic.
type PanicError struct {
	// Task is the task index whose callback panicked.
	Task int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (debug.Stack).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: task %d panicked: %v", e.Task, e.Value)
}

// SuppressedError wraps the first error of a run when further tasks
// also failed concurrently: the first error wins the return slot, but
// the losers are counted instead of vanishing, so chaos tests can
// assert nothing was dropped. Unwrap yields the first error, keeping
// errors.Is/As chains intact.
type SuppressedError struct {
	// First is the error that won the first-error slot.
	First error
	// Count is how many additional task errors were suppressed.
	Count int
}

func (e *SuppressedError) Error() string {
	return fmt.Sprintf("%v (+%d suppressed task errors)", e.First, e.Count)
}

// Unwrap exposes the first error to errors.Is/errors.As.
func (e *SuppressedError) Unwrap() error { return e.First }
