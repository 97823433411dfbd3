package main

import (
	"math"
	"testing"
)

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range []string{"ChainedH8", "ChainedH24", "LP", "LPSoA", "QP", "RH", "CuckooH4"} {
		if err := run(scheme, "Mult", "Sparse", 12, 0.7, 1); err != nil {
			t.Fatalf("run(%s): %v", scheme, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("LP", "CRC", "Sparse", 12, 0.7, 1); err == nil {
		t.Error("unknown hash function accepted")
	}
	if err := run("LP", "Mult", "Zipf", 12, 0.7, 1); err == nil {
		t.Error("unknown distribution accepted")
	}
	for _, alpha := range []float64{1.5, 0, math.NaN()} {
		if err := run("LP", "Mult", "Sparse", 12, alpha, 1); err == nil {
			t.Errorf("load factor %v accepted", alpha)
		}
	}
	// The bound is checked before anything is allocated. Only the low side
	// is run: a -slots above 30 that slipped through would allocate it.
	for _, slots := range []int{-1, 0, 3} {
		if err := run("LP", "Mult", "Sparse", slots, 0.5, 1); err == nil {
			t.Errorf("-slots %d accepted", slots)
		}
	}
	if err := run("bogus", "Mult", "Sparse", 12, 0.5, 1); err == nil {
		t.Error("unknown scheme accepted")
	}
}
