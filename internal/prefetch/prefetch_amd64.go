package prefetch

// Line asks the CPU to bring the cache line holding *p into every cache
// level (PREFETCHT0). p must point into live memory; what it holds is not
// read.
//
//go:noescape
func Line(p *uint64)
