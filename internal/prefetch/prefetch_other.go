//go:build !amd64

package prefetch

// Line warms the cache line holding *p with an early load whose value is
// discarded: the portable stand-in for a prefetch instruction.
func Line(p *uint64) { _ = load(p) }

// load is a plain read, not an atomic one. The path search that calls Line
// can run inside an emulated transaction, where a call into sync/atomic is
// one the transaction cannot undo (cuckoovet's blockcheck); a read whose
// value is discarded needs no atomicity, and a torn or stale word is never
// used. It is not inlined, so the read is not elided with its unused
// result, and not instrumented, so the race detector does not report the
// overlap with concurrent writers that a prefetch is for.
//
//go:noinline
//go:norace
func load(p *uint64) uint64 { return *p }
