//go:build race

package shard

// Race-detector builds: every read takes the locked slow path. The
// optimistic protocol's probes are deliberate data races (plain loads
// of slots a writer may be storing, discarded retroactively by sequence
// validation), which the detector would report on every concurrent
// read. Routing reads through the fallback keeps -race runs meaningful
// for everything else — writer serialization, migration, degradation,
// the oracle differentials — while the non-race suites (which assert
// value integrity on every read) exercise the seqlock itself.
//
// Retry/fallback accounting stays untouched here on purpose: these are
// not protocol fallbacks, and tests asserting the counters' behavior
// carry the !race tag.

func (e *Engine) readGet(s *shardState, key uint64) (val uint64, ok bool) {
	readLocked(s, func(v *view) { val, ok = v.get(key) })
	return val, ok
}

func (e *Engine) readRange(s *shardState, keys, vals []uint64, ok []bool) (hits int) {
	readLocked(s, func(v *view) { hits = v.getRange(keys, vals, ok) })
	return hits
}

func (e *Engine) readSnapshot(s *shardState, fn func(v *view)) {
	readLocked(s, fn)
}
