package fault

import (
	"errors"
	"testing"
)

// TestDisarmedNeverFires pins the disarmed no-op contract.
func TestDisarmedNeverFires(t *testing.T) {
	Disarm()
	if Armed() {
		t.Fatal("Armed() = true after Disarm")
	}
	for k := Full; int(k) < NumKinds; k++ {
		for i := 0; i < 1000; i++ {
			if Should(k) {
				t.Fatalf("disarmed Should(%v) fired", k)
			}
		}
	}
	MaybeStall() // must be a no-op, not a crash
	if c := Snapshot(); c.Seen != [NumKinds]uint64{} {
		t.Fatalf("disarmed Snapshot counted occurrences: %+v", c)
	}
}

// TestDeterministicSchedule replays the same serial occurrence stream
// twice and demands bit-identical decisions, and checks rate endpoints.
func TestDeterministicSchedule(t *testing.T) {
	defer Disarm()
	cfg := Config{Seed: 99}
	cfg.Rates[Full] = 0.3
	cfg.Rates[Stall] = 1.0
	cfg.Rates[Panic] = 0.0

	record := func() []bool {
		Arm(cfg)
		var got []bool
		for i := 0; i < 4096; i++ {
			got = append(got, Should(Full))
		}
		return got
	}
	a, b := record(), record()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("occurrence %d decided differently across arms", i)
		}
		if a[i] {
			fired++
		}
	}
	// 30% rate over 4096 draws: demand the ballpark, not the exact count.
	if fired < 1000 || fired > 1500 {
		t.Fatalf("rate 0.3 fired %d/4096 times", fired)
	}

	Arm(cfg)
	for i := 0; i < 64; i++ {
		if !Should(Stall) {
			t.Fatalf("rate 1.0 did not fire at occurrence %d", i)
		}
		if Should(Panic) {
			t.Fatalf("rate 0.0 fired at occurrence %d", i)
		}
	}
	c := Snapshot()
	if c.Seen[Stall] != 64 || c.Fired[Stall] != 64 {
		t.Fatalf("Stall counters = %d seen / %d fired, want 64/64", c.Seen[Stall], c.Fired[Stall])
	}
	if c.Fired[Panic] != 0 {
		t.Fatalf("Panic fired %d times at rate 0", c.Fired[Panic])
	}
}

// TestErrInjectedIsRoot keeps the sentinel stable for errors.Is chains.
func TestErrInjectedIsRoot(t *testing.T) {
	if !errors.Is(ErrInjected, ErrInjected) {
		t.Fatal("ErrInjected does not match itself")
	}
	if ErrInjected.Error() == "" {
		t.Fatal("empty ErrInjected message")
	}
}
