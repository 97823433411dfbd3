package shard

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPendingSetFullTakesTheWindow: a steady shard's deletes leave the
// sequence word alone and the table untouched until the set holds
// pendingCap keys; the next delete opens a window, whose opening deletes
// every pending key from the table before the delete's own.
func TestPendingSetFullTakesTheWindow(t *testing.T) {
	e := testEngine(t, 1, 1<<12)
	const n = 600
	for k := uint64(1); k <= n; k++ {
		if _, err := tryPut(e, k, k); err != nil {
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

// TestPendingCountPublishesItsAdd: a reader that has loaded the set's count
// finds every key added before it, in keys, through has and through mask.
// Writer and reader take turns through atomics, each add under the shard
// lock and a window's apply after every pendingCap of them. Under -race an
// add that stored a word after the count races the reader's load of that
// word; without -race the reader, spinning on the count, can look before
// the word lands.
func TestPendingCountPublishesItsAdd(t *testing.T) {
	e := testEngine(t, 1, 1<<12)
	s := &e.shards[0]
	p := &s.pend
	const adds = 8 * pendingCap
	key := func(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }
	var acked atomic.Int32
	read := make(chan struct{})
	go func() {
		defer close(read)
		vals, ok := make([]uint64, 1), make([]bool, 1)
		for i := range adds {
			n := int32(i%pendingCap + 1)
			for p.n.Load() != n {
				runtime.Gosched()
			}
			k := key(i)
			ok[0] = true
			if got := atomic.LoadUint64(&p.keys[n-1]); got != k {
				t.Errorf("add %d: keys[%d] = %#x at count %d, want %#x", i, n-1, got, n, k)
			}
			if !p.has(k) || p.mask([]uint64{k}, vals, ok) != 1 {
				t.Errorf("add %d: key %#x not pending at count %d", i, k, n)
			}
			acked.Store(int32(i + 1))
		}
	}()
	for i := range adds {
		if i > 0 && i%pendingCap == 0 {
			s.lockShard() // applies the full set
			s.unlockShard()
		}
		s.acquire()
		p.add(key(i))
		s.mu.Unlock()
		for acked.Load() != int32(i+1) {
			runtime.Gosched()
		}
	}
	<-read
}
