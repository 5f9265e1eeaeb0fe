package generic

import "hash/maphash"

// GetBytes is Get for a string-keyed table probed with the raw key
// bytes, so the caller never materializes a string for a lookup (the
// server's GET path aliases the connection read buffer). Correctness
// rests on two compiler/runtime guarantees:
//
//   - maphash.Bytes(seed, b) == maphash.String(seed, string(b)) for every
//     b, which is how Table.hash hashes a string key
//     (TestBytesHashEquivalence guards this at every length that matters:
//     empty, and on both sides of maphash's 128-byte block).
//   - a slot's key == string(key) compiles to a pointer/length compare
//     plus memcmp with no allocation (a recognized free-conversion
//     position, like map indexing).
//
//cuckoo:hotpath the server GET path: one probe, zero allocations
func GetBytes[V any](t *Table[string, V], key []byte) (V, bool) {
	return t.get(maphash.Bytes(t.seed, key), func(k string) bool { return k == string(key) })
}
