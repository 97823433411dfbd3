package agg_test

import (
	"errors"
	"testing"

	"repro/agg"
	"repro/internal/fault"
	"repro/table"
)

// TestAddErrFullPropagation: a group-index refusal (injected at rate
// 1.0 — the growing index never organically fills) surfaces from the
// scalar single-probe path as the typed ErrFull chain.
func TestAddErrFullPropagation(t *testing.T) {
	g := agg.MustNewGroupBy(agg.Config{Seed: 6})
	var rates [fault.NumKinds]float64
	rates[fault.Full] = 1.0
	fault.Arm(fault.Config{Seed: 6, Rates: rates})
	defer fault.Disarm()

	if err := g.Add(1, 2); !errors.Is(err, table.ErrFull) {
		t.Fatalf("Add error = %v, want ErrFull chain", err)
	}
	fault.Disarm()
	if err := g.Add(1, 2); err != nil {
		t.Fatalf("Add after disarm: %v", err)
	}
	s, ok := g.Get(1)
	if !ok || s.Count != 1 {
		t.Fatalf("refused Add leaked state: %+v %v", s, ok)
	}
}
