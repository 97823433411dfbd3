package table

import (
	"errors"
	"fmt"
)

// ErrFull reports that a growth-disabled table has run out of room. It is
// returned (wrapped in a *FullError carrying the scheme and occupancy) by
// every mutation — RMW and RMWBatch on a raw Table or a shard.Engine, and
// the named write forms of a Handle — when MaxLoadFactor is zero and live
// entries exhaust the fixed capacity, or, for Cuckoo, when the scheme
// cannot place the key at the current occupancy (its feasibility limit
// sits below 100%, ~96.7% for k=4; after a refusal, further keys without
// a free candidate slot are refused conservatively until a delete frees
// room). A full table is never grown behind the caller's back.
var ErrFull = errors.New("table is full and growth is disabled")

// FullError is the concrete error wrapping ErrFull: which scheme filled up
// and at what occupancy. Use errors.Is(err, ErrFull) to test for it.
type FullError struct {
	Scheme   string // scheme name, e.g. "LP"
	Len      int    // live entries at the point of failure
	Capacity int    // fixed slot capacity
}

// Error implements error.
func (e *FullError) Error() string {
	return fmt.Sprintf("table: %s is full (%d/%d slots) and growth is disabled", e.Scheme, e.Len, e.Capacity)
}

// Unwrap makes errors.Is(err, ErrFull) work.
func (e *FullError) Unwrap() error { return ErrFull }

// errFull builds the wrapped ErrFull for one scheme.
func errFull(scheme string, size, capacity int) error {
	return &FullError{Scheme: scheme, Len: size, Capacity: capacity}
}

// errInjectedFull is the *FullError the armed fault injector synthesizes
// at the Handle entry points. Len/Capacity are -1: the real occupancy
// was never consulted — the refusal is simulated, not organic.
func errInjectedFull(scheme string) error {
	return &FullError{Scheme: scheme + "(injected)", Len: -1, Capacity: -1}
}
