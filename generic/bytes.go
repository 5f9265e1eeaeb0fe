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
	h := maphash.Bytes(t.seed, key)
	tag := tagOf(h)
	var lockBuf [8]uint64
	for {
		st := t.loadState()
		locked := t.lockAllGens(st, h, lockBuf[:0])
		if !t.stateValid(st) {
			t.locks.UnlockOrdered(locked)
			continue
		}
		for _, g := range st.olds {
			ob1, ob2 := t.twoBuckets(h, g.arr.buckets)
			for _, b := range [2]uint64{ob1, ob2} {
				if i, ok := findBytes(t, g.arr, b, key, tag); ok {
					v := g.arr.vals[i]
					t.locks.UnlockOrdered(locked)
					return v, true
				}
			}
		}
		b1, b2 := t.twoBuckets(h, st.live.buckets)
		for _, b := range [2]uint64{b1, b2} {
			if i, ok := findBytes(t, st.live, b, key, tag); ok {
				v := st.live.vals[i]
				t.locks.UnlockOrdered(locked)
				return v, true
			}
		}
		t.locks.UnlockOrdered(locked)
		var zero V
		return zero, false
	}
}

// findBytes is find with a byte-slice probe; caller holds b's stripe.
func findBytes[V any](t *Table[string, V], arr *tArrays[string, V], b uint64, key []byte, tag uint8) (uint64, bool) {
	for s, slotTag := range t.bucketTags(arr, b) {
		if i := b*t.assoc + uint64(s); slotTag == tag && t.keyAt(arr, i) == string(key) {
			return i, true
		}
	}
	return 0, false
}
