package shard

import "sync/atomic"

// pendingSet is a steady shard's logical deletes: keys a scalar Delete took
// out of the shard (live no longer counts them) that are still in its
// table. Deleting from a table moves entries — the backward shift of every
// linear-probing scheme — so a physical delete needs a seqlock
// window, and every window tears the batched reads that overlap it. A
// logical delete opens none: under the shard lock it records the key here,
// where readers see it, and the next write window deletes it from the table
// (apply, called by lockShard) before it does anything else. So nothing but
// a reader ever meets a pending key, and only a steady shard — one not
// migrating — has any: a migration begins inside a window, after the
// apply.
//
// Readers share the set with the writer that adds to it, outside any
// window. Every word but the count is written plainly, under the shard
// lock, and published by one sequentially consistent store, the count's: a
// reader loads n first and the rest after it, with sync/atomic, so the Go
// memory model orders everything add wrote before storing n before
// whatever a reader that saw that n loads. (On amd64 each atomic store is
// an XCHG, a full fence; an atomic load is a plain MOV.)
//
//   - keys lists the pending keys in the order they were deleted;
//   - slots is an open-addressed index over keys, holding the ordinal
//     i+1 of keys[i] (0 = empty), insert-only between applies;
//   - filter is a 512-bit reject filter, one bit per key, which turns
//     away most hits of a key that is not pending before any slot is
//     probed;
//   - n is the published count: keys[:n] are pending. add stores it last,
//     so a reader that loaded n sees every slot and key before it, and a
//     Delete linearizes at that store.
//
// A reader may also meet the words of a later add still being written.
// The slots that add fills carry ordinals above the reader's n, and a
// filter bit it sets early only sends a lane on to the slots. A reader
// probing for a key stops at an empty slot or at an ordinal above the n it
// loaded: every slot on a key's probe path before its own was taken before
// it was, so a later entry there means the key was not pending as of n. A
// batched read loads n once, so its whole range sees the set as of one
// instant, as it sees the table. apply runs inside a window, whose readers
// discard what they read. at, the slot of each key, is the writer's alone:
// apply empties exactly those slots, not all of them. Only add and apply
// write the plain words (the lockdiscipline analyzer checks it), and under
// -race no reader consults the set outside the lock (read_racedetector.go).
type pendingSet struct {
	n      atomic.Int32
	_      [0]atomic.Uint64 // filter and keys 8-byte aligned for 64-bit atomic loads, on 32-bit platforms too
	filter [pendingSlots / 64]uint64
	slots  [pendingSlots]uint32
	keys   [pendingCap]uint64
	at     [pendingCap]uint16
}

// pendingCap is how many keys a shard holds pending: the delete after that
// takes the windowed path. pendingSlots keeps the index at half load.
const (
	pendingCap   = 256
	pendingSlots = 2 * pendingCap
)

// pendingMix scrambles a key into its home slot (the top nine bits) and its
// filter bit (the nine below), independent of the table and router hashes.
const pendingMix = 0xbf58476d1ce4e5b9

func pendingHash(key uint64) (slot, bit uint64) {
	h := key * pendingMix
	return h >> 55, h >> 46 & (pendingSlots - 1)
}

// full reports whether the set holds pendingCap keys.
func (p *pendingSet) full() bool { return p.n.Load() == pendingCap }

// add records key, which the caller found live and not pending, as
// deleted. Writer-only, under the shard lock (the lockdiscipline analyzer
// checks it) and with the set not full.
func (p *pendingSet) add(key uint64) {
	n := p.n.Load()
	slot, bit := pendingHash(key)
	for p.slots[slot] != 0 {
		slot = (slot + 1) & (pendingSlots - 1)
	}
	p.keys[n] = key
	p.at[n] = uint16(slot)
	p.slots[slot] = uint32(n + 1)
	if b := uint64(1) << (bit % 64); p.filter[bit/64]&b == 0 {
		p.filter[bit/64] |= b // a store to the readers' line only when it changes
	}
	p.n.Store(n + 1)
}

// apply deletes every pending key from t, the steady table they were
// deleted from, and empties the set. Writer-only, inside the seqlock
// window: lockShard calls it before any other write.
func (p *pendingSet) apply(t Table) {
	n := p.n.Load()
	for i := range n {
		t.Delete(p.keys[i])
		p.slots[p.at[i]] = 0
	}
	p.filter = [len(p.filter)]uint64{}
	p.n.Store(0)
}

// has reports whether key is pending.
func (p *pendingSet) has(key uint64) bool {
	n := p.n.Load()
	if n == 0 {
		return false
	}
	slot, bit := pendingHash(key)
	return atomic.LoadUint64(&p.filter[bit/64])&(1<<(bit%64)) != 0 && p.holds(key, slot, n)
}

// mask clears the lanes of a looked-up range whose key is pending, and
// returns how many hits it cleared. It copies the filter once, after the
// count: every bit of the first n keys is in the copy, and the lanes are
// tested against it without a load the writer's next add could miss.
func (p *pendingSet) mask(keys, vals []uint64, ok []bool) (masked int) {
	n := p.n.Load()
	if n == 0 {
		return 0
	}
	var filter [len(p.filter)]uint64
	for i := range filter {
		filter[i] = atomic.LoadUint64(&p.filter[i])
	}
	for i, k := range keys {
		if !ok[i] {
			continue
		}
		slot, bit := pendingHash(k)
		if filter[bit/64]&(1<<(bit%64)) != 0 && p.holds(k, slot, n) {
			vals[i], ok[i] = 0, false
			masked++
		}
	}
	return masked
}

// holds reports whether key, whose home is slot and whose filter bit is
// set, is one of the first n keys added. A reader racing a window's apply
// may see anything; the probe stays in bounds and ends within one lap, and
// validation discards the answer.
func (p *pendingSet) holds(key, slot uint64, n int32) bool {
	for range pendingSlots {
		o := atomic.LoadUint32(&p.slots[slot])
		if o == 0 || int32(o) > n {
			return false
		}
		if atomic.LoadUint64(&p.keys[o-1]) == key {
			return true
		}
		slot = (slot + 1) & (pendingSlots - 1)
	}
	return false
}
