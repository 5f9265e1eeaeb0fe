package core

import (
	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/prefetch"
)

// batchWindow is how far ahead LookupBatch touches candidate buckets before
// scanning them. Deep enough to overlap a DRAM miss, shallow enough to stay
// in the L1.
const batchWindow = 8

// LookupBatch performs n = len(keys) lookups, writing the first value word
// of each found key to vals[i] and presence to found[i]. vals and found
// must be at least len(keys) long.
//
// The batch form exists for the same reason as the BFS prefetch (§4.3.2):
// lookups into a DRAM-resident table are dependent-miss bound, and because
// the bucket schedule is known in advance the misses can be overlapped. The
// implementation touches both candidate buckets of key i+batchWindow before
// scanning key i, converting serial misses into pipelined ones. Like every
// prefetch of the table it is off when Options.Prefetch is.
func (t *Table) LookupBatch(keys []uint64, vals []uint64, found []bool) {
	if len(vals) < len(keys) || len(found) < len(keys) {
		panic("cuckoo: LookupBatch output slices shorter than keys")
	}
	var hashes [batchWindow]uint64

	arr := t.arr.Load()
	n := len(keys)
	for i := 0; i < n; i++ {
		// Keys at index >= batchWindow were hashed when they were
		// prefetched; the first batchWindow keys are hashed inline. Read
		// the cached hash before the prefetch below reuses its slot
		// (i and i+batchWindow share a slot in the ring).
		var h uint64
		if i >= batchWindow {
			h = hashes[i%batchWindow]
		} else {
			h = t.hash(keys[i])
		}
		// Prefetch the bucket pair batchWindow ahead.
		if j := i + batchWindow; j < n {
			hj := t.hash(keys[j])
			hashes[j%batchWindow] = hj
			if t.opts.Prefetch {
				b1, b2 := hashfn.TwoBuckets(hj, arr.buckets)
				prefetchBucket(arr, b1, t.assoc)
				prefetchBucket(arr, b2, t.assoc)
			}
		}
		var v [1]uint64
		found[i] = t.lookupHashed(keys[i], h, v[:])
		vals[i] = v[0]
	}
}

// prefetchBucket prefetches bucket b's key line, as the BFS does for each
// bucket it enqueues.
func prefetchBucket(arr *arrays, b uint64, assoc uint64) {
	prefetch.Line(&arr.keys[b*assoc])
}
