package shard

import "testing"

// TestPendingSetFullTakesTheWindow: a steady shard's deletes leave the
// sequence word alone and the table untouched until the set holds
// pendingCap keys; the next delete opens a window, whose opening deletes
// every pending key from the table before the delete's own.
func TestPendingSetFullTakesTheWindow(t *testing.T) {
	e := testEngine(t, 1, 1<<12)
	const n = 600
	for k := uint64(1); k <= n; k++ {
		if _, err := e.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	s := &e.shards[0]
	seq := s.seq.Load()
	for k := uint64(1); k <= pendingCap; k++ {
		if !e.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
	}
	if got := s.seq.Load(); got != seq {
		t.Fatalf("steady deletes moved the sequence word %d → %d", seq, got)
	}
	if got, tl := s.pend.n.Load(), s.view.Load().cur.Len(); got != pendingCap || tl != n {
		t.Fatalf("%d keys pending, table holds %d: want %d pending and the table untouched (%d)", got, tl, pendingCap, n)
	}
	if !e.Delete(pendingCap + 1) {
		t.Fatalf("Delete(%d) = false", pendingCap+1)
	}
	if got := s.seq.Load(); got != seq+2 {
		t.Fatalf("the delete past a full set moved the sequence word by %d, want one window (2)", got-seq)
	}
	want := n - pendingCap - 1
	if got, tl := s.pend.n.Load(), s.view.Load().cur.Len(); got != 0 || tl != want || e.Len() != want {
		t.Fatalf("%d keys pending, table holds %d, Len %d: want none pending and %d everywhere", got, tl, e.Len(), want)
	}
	for k := uint64(1); k <= n; k++ {
		if _, ok := e.Get(k); ok != (k > pendingCap+1) {
			t.Fatalf("Get(%d) present = %v", k, ok)
		}
	}
}
