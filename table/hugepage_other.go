//go:build !linux

package table

// adviseHugePages is a no-op off Linux: the huge-page advice makeLarge
// gives is Linux's madvise.
func adviseHugePages([]byte) {}
