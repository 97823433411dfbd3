package main

import "testing"

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
	if err := run("LP", "Mult", "Sparse", 12, 1.5, 1); err == nil {
		t.Error("load factor > 1 accepted")
	}
	if err := run("bogus", "Mult", "Sparse", 12, 0.5, 1); err == nil {
		t.Error("unknown scheme accepted")
	}
}
