package generic

import (
	"iter"
	"math/bits"
)

// All returns an iterator over the table's key/value pairs, in the style
// of maps.All. Like Range (which it wraps) it walks the table one stripe
// at a time — concurrent operations keep running, blocking only on the
// bucket currently being copied — but it holds growMu throughout, so do
// not call table methods from inside the loop.
func (t *Table[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		t.Range(yield)
	}
}

// Keys returns a snapshot slice of every key. Unlike All, the snapshot
// is consumed after the walk's locks are released, so the caller may
// freely call table methods while processing it.
func (t *Table[K, V]) Keys() []K {
	keys := make([]K, 0, t.Len())
	t.Range(func(k K, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// Items returns a snapshot of every key/value pair.
func (t *Table[K, V]) Items() map[K]V {
	m := make(map[K]V, t.Len())
	t.Range(func(k K, v V) bool {
		m[k] = v
		return true
	})
	return m
}

// Clear removes every entry. Like Range it first completes any
// in-flight migration, then empties the live buckets one stripe at a
// time; concurrent operations interleave with it, so an entry written
// while Clear runs may survive. The capacity is retained; the search
// mark (ErrFull) is not.
func (t *Table[K, V]) Clear() {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	t.drainAllLocked()
	st := t.loadState()
	st.live.fullAt.Store(0)
	for b := uint64(0); b < st.live.buckets; b++ {
		l := t.locks.IndexFor(b)
		t.locks.Lock(l)
		if n := t.clearBucket(st.live, b); n != 0 {
			t.size.Add(b, -n)
		}
		t.locks.Unlock(l)
	}
}

// clearBucket empties bucket b and returns how many entries it held;
// caller holds the bucket's stripe.
func (t *Table[K, V]) clearBucket(arr *tArrays[K, V], b uint64) int64 {
	var n int64
	for m := used(t.bucketTags(arr, b)); m != 0; m &= m - 1 {
		t.clearSlot(arr, b, b*t.assoc+uint64(bits.TrailingZeros32(m)))
		n++
	}
	return n
}
