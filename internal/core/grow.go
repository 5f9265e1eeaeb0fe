package core

import "cuckoohash/internal/hashfn"

// GrowIfFull grows the table only if it is still nearly full, so that
// several writers reacting to the same ErrFull trigger exactly one
// doubling instead of one each (the loser of the race sees the halved
// load factor and skips). It reports whether a grow happened.
func (t *Table) GrowIfFull() (bool, error) {
	//lint:allow cuckoovet:blockcheck the core engine's grow is documented stop-the-world (§4.1 leaves expansion offline); writers racing ErrFull park here by design
	t.growMu.Lock()
	defer t.growMu.Unlock()
	if t.LoadFactor() <= 0.85 {
		return false, nil
	}
	return true, t.growLocked()
}

// Grow doubles the table's bucket count and rehashes every item. The paper
// leaves expansion as a scheduled offline process ("the hash table is
// considered too full ... and an expansion process is scheduled", §4.1);
// this implementation performs it online by taking every stripe lock, which
// excludes all writers and forces all optimistic readers to retry across
// the swap. Concurrent operations block for the duration.
func (t *Table) Grow() error {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	return t.growLocked()
}

// growLocked is Grow with growMu already held.
func (t *Table) growLocked() error {
	old := t.arr.Load()
	newBuckets := old.buckets * 2
	for {
		next := t.newArrays(newBuckets)
		if t.opts.Locking != LockStriped {
			t.global.Lock()
		}
		t.stripe.LockAll()
		ok := t.rehashInto(old, next)
		if ok {
			t.arr.Store(next)
		}
		t.stripe.UnlockAll()
		if t.opts.Locking != LockStriped {
			t.global.Unlock()
		}
		if ok {
			t.growCount.Add(1)
			return nil
		}
		// Pathological hash clustering: double again. With a sound hash
		// this never recurses more than once.
		newBuckets *= 2
	}
}

// rehashInto replays every occupied slot of old into next. The caller holds
// every stripe lock, so placement can run lock-free and unvalidated.
func (t *Table) rehashInto(old, next *arrays) bool {
	sc := t.scratch.Get().(*searchScratch)
	defer t.scratch.Put(sc)
	val := make([]uint64, t.vw)
	for i, key := range old.entries {
		old.copyValOut(i, t.vw, val)
		if !t.placeDirect(next, sc, key, val) {
			return false
		}
	}
	return true
}

// placeDirect inserts into arr assuming exclusive access (expansion or
// single-threaded bulk load): no locks, no path validation.
func (t *Table) placeDirect(arr *arrays, sc *searchScratch, key uint64, val []uint64) bool {
	if key == 0 {
		t.placeAt(arr, arr.zeroIdx(), key, val)
		return true
	}
	b1, b2 := hashfn.TwoBuckets(t.hash(key), arr.buckets)
	for _, b := range [2]uint64{b1, b2} {
		if i, ok := arr.freeIn(b); ok {
			t.placeAt(arr, i, key, val)
			return true
		}
	}
	t.probe.Searched(b1)
	path, st := t.search(arr, sc, b1, b2)
	if st != searchFound {
		// Exclusive access: searchStale is impossible, so this means full.
		return false
	}
	for i := len(path) - 2; i >= 0; i-- {
		src, dst := path[i], path[i+1]
		arr.moveSlot(arr.slotIdx(src.bucket, src.slot, t.assoc), arr.slotIdx(dst.bucket, dst.slot, t.assoc), t.vw)
	}
	t.placeAt(arr, arr.slotIdx(path[0].bucket, path[0].slot, t.assoc), key, val)
	return true
}

// Range calls fn for every key/value pair until fn returns false. It takes
// every stripe lock for the duration, so it observes a consistent snapshot
// but blocks all writers; readers continue (and retry) across it. The value
// slice passed to fn is reused between calls.
func (t *Table) Range(fn func(key uint64, val []uint64) bool) {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	if t.opts.Locking != LockStriped {
		t.global.Lock()
		defer t.global.Unlock()
	}
	t.stripe.LockAll()
	defer t.stripe.UnlockAll()

	arr := t.arr.Load()
	val := make([]uint64, t.vw)
	for i, key := range arr.entries {
		arr.copyValOut(i, t.vw, val)
		if !fn(key, val) {
			return
		}
	}
}

// Clear removes every entry while retaining capacity, holding every stripe
// lock for the duration.
func (t *Table) Clear() {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	if t.opts.Locking != LockStriped {
		t.global.Lock()
		defer t.global.Unlock()
	}
	t.stripe.LockAll()
	defer t.stripe.UnlockAll()
	arr := t.arr.Load()
	for i := range arr.zeroIdx() + 1 {
		arr.storeKey(i, 0)
	}
	t.size.Reset()
}
