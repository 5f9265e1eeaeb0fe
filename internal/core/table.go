package core

import (
	"sync"
	"sync/atomic"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/spinlock"
	"cuckoohash/internal/txarena"
)

// Table is the cuckoo+ hash table: fixed 8-byte keys, fixed-size values of
// Options.ValueWords 8-byte words, multi-reader/multi-writer. All methods
// are safe for concurrent use.
//
// Memory layout: keys and values live in flat []uint64 arrays (no pointers,
// no per-entry allocation), with a per-bucket occupancy bitmap. A bucket's
// keys are contiguous, matching the paper's "all the keys come first and
// then the values" bucket layout that packs 8 keys into one cache line.
type Table struct {
	finder
	stripe *spinlock.Stripe
	global spinlock.Mutex // writer lock in LockGlobal mode
	growMu sync.Mutex     // serializes Grow

	arr atomic.Pointer[arrays]

	size      metrics.ShardedCounter
	growCount atomic.Uint64
	growEpoch atomic.Uint64 // bumped on every array swap (Grow)
	growLog   growLog
}

// arrays is the swappable storage of a Table; Grow installs a new one.
type arrays struct {
	buckets uint64
	assoc   uint64
	keys    []uint64        // buckets*assoc
	vals    []uint64        // buckets*assoc*vw
	occ     []atomic.Uint32 // per-bucket occupancy bitmask
}

// NewTable creates a table from opts.
func NewTable(opts Options) (*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{stripe: spinlock.NewStripe(opts.Stripes), size: metrics.NewShardedCounter(64)}
	t.finder.init(opts)
	t.arr.Store(t.newArrays(opts.Buckets))
	return t, nil
}

// MustNewTable is NewTable that panics on configuration errors; intended
// for tests and examples with literal configurations.
func MustNewTable(opts Options) *Table {
	t, err := NewTable(opts)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) newArrays(buckets uint64) *arrays {
	return &arrays{
		buckets: buckets,
		assoc:   t.assoc,
		keys:    make([]uint64, buckets*t.assoc),
		vals:    make([]uint64, buckets*t.assoc*t.vw),
		occ:     make([]atomic.Uint32, buckets),
	}
}

// Options returns the table's configuration.
func (t *Table) Options() Options { return t.opts }

// Buckets returns the current number of buckets (it changes on Grow).
func (t *Table) Buckets() uint64 { return t.arr.Load().buckets }

// GrowEpoch returns the table's generation word: a counter bumped every
// time Grow swaps the arrays. It is the specialized table's analogue of
// the generic table's MigrationEpoch — layers that cache versioned read
// sets (e.g. OCC validation) compare it across a read/validate window to
// detect that an entry may have been rehashed into a new generation,
// without re-deriving that fact from the array pointer.
func (t *Table) GrowEpoch() uint64 { return t.growEpoch.Load() }

// Cap returns the current number of slots.
func (t *Table) Cap() uint64 { return t.arr.Load().buckets * t.assoc }

// Len returns the number of stored keys. The value is a lazily aggregated
// snapshot (principle P1): exact when no writers are active.
func (t *Table) Len() uint64 {
	return uint64(t.size.Total())
}

// LoadFactor returns Len/Cap.
func (t *Table) LoadFactor() float64 {
	return float64(t.Len()) / float64(t.Cap())
}

// LockStats returns the stripe table's lock-contention counters: total
// acquisitions, contended acquisitions, and scheduler yields while
// spinning. Spinlock spins were previously invisible; this is the probe
// the evaluation uses to attribute throughput collapse to stripe convoys.
func (t *Table) LockStats() spinlock.StripeStats { return t.stripe.Stats() }

// slot index helpers

func (a *arrays) slotIdx(bucket uint64, slot int, assoc uint64) uint64 {
	return bucket*assoc + uint64(slot)
}

func (a *arrays) fullMask(assoc uint64) uint32 { return uint32(1)<<assoc - 1 }

// With loadOcc below, the bucketReader the unlocked path search reads
// through.
func (a *arrays) numBuckets() uint64             { return a.buckets }
func (a *arrays) slotKey(b uint64, s int) uint64 { return a.loadKey(b*a.assoc + uint64(s)) }
func (a *arrays) slotKeys(b uint64, dst []uint64) {
	for s := range dst {
		dst[s] = a.loadKey(b*a.assoc + uint64(s))
	}
}

func (a *arrays) loadKey(i uint64) uint64  { return atomic.LoadUint64(&a.keys[i]) }
func (a *arrays) storeKey(i, k uint64)     { atomic.StoreUint64(&a.keys[i], k) }
func (a *arrays) loadOcc(b uint64) uint32  { return a.occ[b].Load() }
func (a *arrays) setOcc(b uint64, s int)   { a.occ[b].Store(a.occ[b].Load() | 1<<uint(s)) }
func (a *arrays) clearOcc(b uint64, s int) { a.occ[b].Store(a.occ[b].Load() &^ (1 << uint(s))) }

// copyValOut copies min(vw, len(dst)) value words of slot i into dst with
// atomic loads; callers must validate stripe versions afterwards if reading
// optimistically.
func (a *arrays) copyValOut(i uint64, vw uint64, dst []uint64) {
	base := i * vw
	n := vw
	if uint64(len(dst)) < n {
		n = uint64(len(dst))
	}
	for w := uint64(0); w < n; w++ {
		dst[w] = atomic.LoadUint64(&a.vals[base+w])
	}
}

// storeVal writes the value words of slot i, zero-filling words beyond
// len(src); callers must hold the bucket's stripe lock. Writing all vw
// words keeps the memory-bandwidth cost of large values honest even when
// the caller supplies a short payload.
func (a *arrays) storeVal(i uint64, vw uint64, src []uint64) {
	base := i * vw
	for w := uint64(0); w < vw; w++ {
		var v uint64
		if w < uint64(len(src)) {
			v = src[w]
		}
		atomic.StoreUint64(&a.vals[base+w], v)
	}
}

// moveSlot copies key and value from slot src to slot dst (indices into the
// flat arrays); caller holds both buckets' stripe locks.
func (a *arrays) moveSlot(src, dst uint64, vw uint64) {
	atomic.StoreUint64(&a.keys[dst], atomic.LoadUint64(&a.keys[src]))
	sb, db := src*vw, dst*vw
	for w := uint64(0); w < vw; w++ {
		atomic.StoreUint64(&a.vals[db+w], atomic.LoadUint64(&a.vals[sb+w]))
	}
}

// Lookup returns the first value word for key. For multi-word values use
// LookupValue.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	var v [1]uint64
	if t.LookupValue(key, v[:]) {
		return v[0], true
	}
	return 0, false
}

// LookupValue copies min(ValueWords, len(dst)) of key's value words into
// dst and reports whether the key was found. The read is optimistic: it
// takes no locks and dirties no shared cache lines (§4.2).
func (t *Table) LookupValue(key uint64, dst []uint64) bool {
	h := t.hash(key)
	for spins := 0; ; spins++ {
		arr := t.arr.Load()
		b1, b2 := hashfn.TwoBuckets(h, arr.buckets)
		l1 := t.stripe.IndexFor(b1)
		l2 := t.stripe.IndexFor(b2)
		v1, ok1 := t.stripe.Snapshot(l1)
		v2, ok2 := t.stripe.Snapshot(l2)
		if ok1 && ok2 {
			found := t.scanBucket(arr, b1, key, dst)
			if !found {
				found = t.scanBucket(arr, b2, key, dst)
			}
			if t.stripe.Validate(l1, v1) && t.stripe.Validate(l2, v2) && t.arr.Load() == arr {
				return found
			}
		}
		if spins >= 64 {
			yield()
			spins = 0
		}
	}
}

// Contains reports whether key is present.
func (t *Table) Contains(key uint64) bool {
	return t.LookupValue(key, nil)
}

// scanBucket looks for key in bucket b; on a hit it copies the value into
// dst (if non-nil) and returns true.
func (t *Table) scanBucket(arr *arrays, b uint64, key uint64, dst []uint64) bool {
	occ := arr.loadOcc(b)
	base := b * t.assoc
	for s := 0; occ != 0; s, occ = s+1, occ>>1 {
		if occ&1 == 0 {
			continue
		}
		i := base + uint64(s)
		if arr.loadKey(i) == key {
			if dst != nil {
				arr.copyValOut(i, t.vw, dst)
			}
			return true
		}
	}
	return false
}

// lockPair acquires the stripe locks for buckets b1 and b2 (in stripe order)
// and, in LockGlobal mode, the global writer lock first.
func (t *Table) lockPair(b1, b2 uint64) (l1, l2 uint64) {
	l1, l2 = t.stripe.IndexFor(b1), t.stripe.IndexFor(b2)
	if t.opts.Locking == LockGlobal {
		t.global.Lock()
	}
	t.stripe.LockPair(l1, l2)
	return l1, l2
}

func (t *Table) unlockPair(l1, l2 uint64) {
	t.stripe.UnlockPair(l1, l2)
	if t.opts.Locking == LockGlobal {
		t.global.Unlock()
	}
}

// writeMode distinguishes the public mutation flavours.
type writeMode int

const (
	modeInsert writeMode = iota // fail with ErrExists when present
	modeUpsert                  // overwrite when present
	modeUpdate                  // only overwrite; report absence
)

// Insert adds key with the single-word value val. It returns ErrExists if
// the key is present and ErrFull if no empty slot is reachable.
func (t *Table) Insert(key, val uint64) error {
	return t.write(key, []uint64{val}, modeInsert)
}

// InsertValue is Insert for multi-word values.
func (t *Table) InsertValue(key uint64, val []uint64) error {
	return t.write(key, val, modeInsert)
}

// Upsert inserts key or overwrites its existing value.
func (t *Table) Upsert(key, val uint64) error {
	return t.write(key, []uint64{val}, modeUpsert)
}

// UpsertValue is Upsert for multi-word values.
func (t *Table) UpsertValue(key uint64, val []uint64) error {
	return t.write(key, val, modeUpsert)
}

// Update overwrites key's value only if present, reporting whether it was.
func (t *Table) Update(key, val uint64) bool {
	return t.write(key, []uint64{val}, modeUpdate) == nil
}

// errAbsent is an internal sentinel for modeUpdate misses.
var errAbsent = &absentError{}

type absentError struct{}

func (*absentError) Error() string { return "cuckoo: key not found" }

// write implements Insert/Upsert/Update per Algorithm 2 plus §4.4.
func (t *Table) write(key uint64, val []uint64, mode writeMode) error {
	if uint64(len(val)) > t.vw {
		panic("cuckoo: value longer than ValueWords")
	}
	h := t.hash(key)
	for {
		arr := t.arr.Load()
		b1, b2 := hashfn.TwoBuckets(h, arr.buckets)

		// Fast path, per Algorithm 2 lines 3–8: peek (unlocked) whether
		// either candidate bucket has a free slot; if so take the locked
		// attempt, which also performs the duplicate-key check inside the
		// critical section. Upsert/Update must take the locked attempt
		// regardless, since their duplicate handling is a write.
		full := arr.loadOcc(b1) == arr.fullMask(t.assoc) && arr.loadOcc(b2) == arr.fullMask(t.assoc)
		if mode != modeInsert || !full {
			switch t.attemptInPair(arr, b1, b2, key, val, mode, -1) {
			case attemptInserted, attemptUpdated:
				return nil
			case attemptExists:
				return ErrExists
			case attemptAbsent:
				return errAbsent
			case attemptStale:
				continue
			case attemptNoSpace:
				if mode == modeUpdate {
					// Full buckets and the key is not in them: a miss.
					return errAbsent
				}
			}
		}

		// Slow path, Algorithm 2 lines 9–13: discover a cuckoo path with
		// no locks held (§4.3.1), then execute it under per-displacement
		// pair locks. The duplicate check for the modeInsert fast-path
		// bypass happens inside the final critical section of executePath.
		sc := t.scratch.Get().(*searchScratch)
		path, st := t.search(arr, sc, b1, b2)
		if st == searchStale {
			// A concurrent writer invalidated the observation mid-search
			// (Eq. 1, caught one phase earlier than usual): restart.
			t.scratch.Put(sc)
			t.probe.Restarted(b1)
			continue
		}
		if st == searchFull {
			t.scratch.Put(sc)
			// No path: before declaring the table full, take one locked
			// attempt — the key may already exist (ErrExists, not
			// ErrFull), or a concurrent delete may have freed a slot.
			switch t.attemptInPair(arr, b1, b2, key, val, mode, -1) {
			case attemptInserted, attemptUpdated:
				return nil
			case attemptExists:
				return ErrExists
			case attemptAbsent:
				return errAbsent
			case attemptStale:
				continue
			}
			return ErrFull
		}
		t.probe.ObservePath(b1, uint64(len(path)-1))
		res := t.executePath(arr, path, b1, b2, key, val, mode)
		t.scratch.Put(sc)
		switch res {
		case attemptInserted, attemptUpdated:
			return nil
		case attemptExists:
			return ErrExists
		case attemptAbsent:
			return errAbsent
		}
		// Path invalidated by a concurrent writer (Eq. 1): restart.
		t.probe.Restarted(b1)
	}
}

// attempt results.
type attemptResult int

const (
	attemptInserted attemptResult = iota
	attemptUpdated
	attemptExists
	attemptAbsent
	attemptNoSpace
	attemptStale // arrays swapped by Grow while locking
	attemptRetry // cuckoo path invalidated by a concurrent writer
)

// attemptInPair locks buckets b1 and b2, checks for the key, and inserts
// into an empty slot if one exists. If reqSlot >= 0, the insert must go
// into that slot of bucket b1 (used by executePath after freeing it) and
// the attempt fails with attemptNoSpace if that slot was re-occupied.
func (t *Table) attemptInPair(arr *arrays, b1, b2 uint64, key uint64, val []uint64, mode writeMode, reqSlot int) attemptResult {
	l1, l2 := t.lockPair(b1, b2)
	defer t.unlockPair(l1, l2)
	if t.arr.Load() != arr {
		return attemptStale
	}

	// Duplicate check under the lock (required for Insert correctness,
	// noted after Algorithm 2 in the paper).
	if i, ok := t.findLocked(arr, b1, key); ok {
		return t.onExisting(arr, i, val, mode)
	}
	if i, ok := t.findLocked(arr, b2, key); ok {
		return t.onExisting(arr, i, val, mode)
	}
	if mode == modeUpdate {
		return attemptAbsent
	}

	if reqSlot >= 0 {
		if arr.loadOcc(b1)&(1<<uint(reqSlot)) != 0 {
			return attemptNoSpace
		}
		t.insertAt(arr, b1, reqSlot, key, val)
		return attemptInserted
	}
	if s, ok := txarena.FreeSlot(arr.loadOcc(b1), int(t.assoc)); ok {
		t.insertAt(arr, b1, s, key, val)
		return attemptInserted
	}
	if s, ok := txarena.FreeSlot(arr.loadOcc(b2), int(t.assoc)); ok {
		t.insertAt(arr, b2, s, key, val)
		return attemptInserted
	}
	return attemptNoSpace
}

func (t *Table) onExisting(arr *arrays, slot uint64, val []uint64, mode writeMode) attemptResult {
	switch mode {
	case modeInsert:
		return attemptExists
	default:
		arr.storeVal(slot, t.vw, val)
		return attemptUpdated
	}
}

// findLocked scans bucket b for key; caller holds the bucket's stripe lock.
func (t *Table) findLocked(arr *arrays, b uint64, key uint64) (uint64, bool) {
	occ := arr.loadOcc(b)
	base := b * t.assoc
	for s := 0; occ != 0; s, occ = s+1, occ>>1 {
		if occ&1 != 0 && arr.loadKey(base+uint64(s)) == key {
			return base + uint64(s), true
		}
	}
	return 0, false
}

// insertAt writes key/val into (b, s); caller holds b's stripe lock and has
// verified the slot is free.
func (t *Table) insertAt(arr *arrays, b uint64, s int, key uint64, val []uint64) {
	i := arr.slotIdx(b, s, t.assoc)
	arr.storeKey(i, key)
	arr.storeVal(i, t.vw, val)
	arr.setOcc(b, s)
	t.size.Add(b, 1)
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key uint64) bool {
	h := t.hash(key)
	for {
		arr := t.arr.Load()
		b1, b2 := hashfn.TwoBuckets(h, arr.buckets)
		l1, l2 := t.lockPair(b1, b2)
		if t.arr.Load() != arr {
			t.unlockPair(l1, l2)
			continue
		}
		deleted := false
		if i, ok := t.findLocked(arr, b1, key); ok {
			arr.clearOcc(b1, int(i-b1*t.assoc))
			t.size.Add(b1, -1)
			deleted = true
		} else if i, ok := t.findLocked(arr, b2, key); ok {
			arr.clearOcc(b2, int(i-b2*t.assoc))
			t.size.Add(b2, -1)
			deleted = true
		}
		t.unlockPair(l1, l2)
		return deleted
	}
}

func yield() { runtimeGosched() }
