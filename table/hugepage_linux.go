package table

import "syscall"

// The madvise advice values, as in the kernel's asm-generic
// mman-common.h; the syscall package has no MADV_COLLAPSE.
const (
	madvHugePage = 14 // MADV_HUGEPAGE: fault this range in as huge pages
	madvCollapse = 25 // MADV_COLLAPSE: replace its small pages now (Linux 6.1+)
)

// adviseHugePages marks b, a whole number of 2 MiB-aligned huge pages,
// for transparent huge pages, then collapses whatever of it is already
// faulted in at 4 KiB (a heap span reused from a freed array, which make
// has just zeroed). Both calls are advice: a kernel with THP disabled or
// older than 6.1 refuses them, and the array works as before.
func adviseHugePages(b []byte) {
	_ = syscall.Madvise(b, madvHugePage)
	_ = syscall.Madvise(b, madvCollapse)
}
