// Package vec is named like the SIMD stand-in package that once sat on the
// allowlist: the allowlist is table/policy.go alone now, so any other
// package importing unsafe is reported.
package vec

import "unsafe" // want `unsafe imported outside the allowlist`

// gather reads the word after p through pointer arithmetic.
func gather(p *uint64) uint64 { return *(*uint64)(unsafe.Add(unsafe.Pointer(p), 8)) }
