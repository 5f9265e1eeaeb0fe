// Package hugepage allocates the flat arrays of the hash tables. A table
// past the caches is bound by dependent misses (the paper's §4.3.2), and
// on 4 KiB pages each of a probe's two candidate buckets can cost a TLB
// miss as well as a cache miss; on 2 MiB pages a 64 MiB table needs 32 TLB
// entries. Make allocates as make does and, for an array of at least
// minBytes, asks the kernel to back it with huge pages: on Linux,
// madvise(MADV_HUGEPAGE) over the 2 MiB pages that lie wholly inside the
// array's own bytes, so no neighbouring allocation is covered. Elsewhere,
// and when the kernel's transparent huge pages are off, it is make.
//
// Smaller arrays are left alone: advising one would split the heap's
// mapping for at most one huge page. A cuckood shard stays below minBytes
// up to 512 Ki slots (its largest array holds one 8-byte pointer a slot).
//
// The package takes an array's address as a number (reflect, not unsafe)
// and hands the kernel that number; it never turns one back into a
// pointer. Go's heap does not move objects, and the array is live across
// the call.
package hugepage

import "reflect"

// minBytes is the size from which Make advises an array.
const minBytes = 4 << 20

// pageSize is the huge page the advice is aligned to.
const pageSize = 2 << 20

// Make returns make([]T, n), advised for huge pages when it spans at least
// minBytes.
func Make[T any](n uint64) []T {
	s := make([]T, n)
	if size := n * uint64(reflect.TypeFor[T]().Size()); size >= minBytes {
		advise(reflect.ValueOf(s).Pointer(), uintptr(size))
	}
	return s
}

// inner returns the part of [addr, addr+size) that whole, aligned huge
// pages cover, as its start and length.
func inner(addr, size uintptr) (start, n uintptr) {
	start = (addr + pageSize - 1) &^ (pageSize - 1)
	if start-addr >= size {
		return start, 0
	}
	return start, (size - (start - addr)) &^ (pageSize - 1)
}
