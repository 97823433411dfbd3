// Package shard stands in for the engine: its path base is "shard", so it
// may own raw primitives — but not a pull iterator, whose goroutine is
// started where no go statement shows it. This is the migration cursor
// the real package used to keep.
package shard

import "iter"

type table interface {
	Range(fn func(k, v uint64) bool)
}

type cursor struct {
	pull func() (k, v uint64, ok bool)
	stop func()
	done chan struct{}
}

func open(frozen table) *cursor {
	c := &cursor{done: make(chan struct{})}
	c.pull, c.stop = iter.Pull2(iter.Seq2[uint64, uint64](frozen.Range)) // want `iter\.Pull2 starts a hidden goroutine`
	return c
}
