package core

import (
	"sync"
	"sync/atomic"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/hugepage"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/spinlock"
)

// Table is the cuckoo+ hash table: fixed 8-byte keys, fixed-size values of
// Options.ValueWords 8-byte words, multi-reader/multi-writer. All methods
// are safe for concurrent use.
//
// Memory layout: keys and values live in flat []uint64 arrays (no pointers,
// no per-entry allocation). A bucket's keys are contiguous, matching the
// paper's "all the keys come first and then the values" bucket layout that
// packs 8 keys into one cache line, and a zero key word is an empty slot,
// so that line is also the bucket's occupancy.
type Table struct {
	finder
	stripe *spinlock.Stripe
	growMu sync.Mutex // serializes Grow

	arr atomic.Pointer[arrays]

	size      metrics.ShardedCounter
	growCount atomic.Uint64

	// global is the writer lock of LockGlobal and LockEarly, the word
	// concurrent writers fight over. A line of padding on each side keeps
	// it on a line of its own wherever the Table is allocated: on the line
	// of arr, which every lookup and write loads, each acquisition would
	// steal that line from every other reader and writer.
	_      [64]byte
	global spinlock.Mutex
	_      [64]byte
}

// arrays is the swappable storage of a Table; Grow installs a new one.
//
// Key 0 cannot live in a bucket, where a zero key word means empty, so it
// has one slot of its own, addressed as slot index zeroIdx (one past the
// last bucket slot): a present flag (zeroPresent) and vw value words, kept
// apart from keys and vals so that those stay exact multiples of a page.
// That slot is guarded by the stripes of key 0's own two candidate buckets,
// so the operations on key 0 lock and validate exactly what they would for
// any other key.
type arrays struct {
	buckets uint64
	assoc   uint64
	keys    []uint64 // buckets*assoc
	vals    []uint64 // buckets*assoc*vw
	zero    []uint64 // key 0's slot: present flag, then vw value words
}

// zeroPresent is the key word of key 0's slot while key 0 is stored.
const zeroPresent = 1

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
		keys:    hugepage.Make[uint64](buckets * t.assoc),
		vals:    hugepage.Make[uint64](buckets * t.assoc * t.vw),
		zero:    make([]uint64, 1+t.vw),
	}
}

// Options returns the table's configuration.
func (t *Table) Options() Options { return t.opts }

// MemoryFootprint returns the approximate resident bytes of the table: 8 B
// of key and 8 B per value word for every slot, a zero key word being the
// empty slot, plus the lock-stripe table and 12 KB of padded counter shards
// (entry count, probe and lock-probe shards) — the "no pointers" memory
// story of the paper.
func (t *Table) MemoryFootprint() uint64 {
	return t.Cap()*8*(1+t.vw) + uint64(t.opts.Stripes)*8 + 12<<10
}

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

// zeroIdx is the index of key 0's slot.
func (a *arrays) zeroIdx() uint64 { return a.buckets * a.assoc }

// With loadOcc below, the bucketReader the unlocked path search reads
// through.
func (a *arrays) numBuckets() uint64             { return a.buckets }
func (a *arrays) slotKey(b uint64, s int) uint64 { return a.loadKey(b*a.assoc + uint64(s)) }
func (a *arrays) slotKeys(b uint64, dst []uint64) {
	for s := range dst {
		dst[s] = a.loadKey(b*a.assoc + uint64(s))
	}
}

// loadKey reads the key word of bucket slot i.
//
//lint:allow cuckoovet:blockcheck no transaction reads arrays: a search inside one (TxTable in LockEarly mode) reaches them only through the bucketReader interface, and passes its txSearch
func (a *arrays) loadKey(i uint64) uint64 { return atomic.LoadUint64(&a.keys[i]) }

// storeKey writes the key word of slot i, key 0's slot included.
func (a *arrays) storeKey(i, k uint64) { atomic.StoreUint64(a.keyWord(i), k) }

// keyWord and valWords address slot i, key 0's slot included.
func (a *arrays) keyWord(i uint64) *uint64 {
	if i == a.zeroIdx() {
		return &a.zero[0]
	}
	return &a.keys[i]
}

func (a *arrays) valWords(i, vw uint64) []uint64 {
	if i == a.zeroIdx() {
		return a.zero[1:]
	}
	return a.vals[i*vw : (i+1)*vw]
}

// touch loads bucket b's key line and the first line of its values and
// discards what it reads: a software prefetch, since Go has no portable
// prefetch instruction.
func (a *arrays) touch(b, vw uint64) {
	_ = a.loadKey(b * a.assoc)
	_ = atomic.LoadUint64(&a.vals[b*a.assoc*vw])
}

// touchPair, with Options.Prefetch, touches both candidate buckets before
// anything reads them, so that their four misses overlap instead of each
// meeting the scan, the free-slot peek, the lock or the value copy as it
// gets there.
func (t *Table) touchPair(arr *arrays, b1, b2 uint64) {
	if t.opts.Prefetch {
		arr.touch(b1, t.vw)
		arr.touch(b2, t.vw)
	}
}

// hasZero reports whether key 0 is stored.
func (a *arrays) hasZero() bool { return atomic.LoadUint64(&a.zero[0]) != 0 }

// loadOcc derives bucket b's occupancy bitmask from its key line.
func (a *arrays) loadOcc(b uint64) uint32 {
	var occ uint32
	for s, base := uint64(0), b*a.assoc; s < a.assoc; s++ {
		if a.loadKey(base+s) != 0 {
			occ |= 1 << s
		}
	}
	return occ
}

// freeIn returns the slot index of bucket b's first empty slot.
func (a *arrays) freeIn(b uint64) (uint64, bool) {
	for i, end := b*a.assoc, (b+1)*a.assoc; i < end; i++ {
		if a.loadKey(i) == 0 {
			return i, true
		}
	}
	return 0, false
}

func (a *arrays) hasFree(b uint64) bool {
	_, ok := a.freeIn(b)
	return ok
}

// entries yields the slot index and key of every stored entry, key 0's slot
// last; range over it.
func (a *arrays) entries(visit func(i, key uint64) bool) {
	zi := a.zeroIdx()
	for i := uint64(0); i < zi; i++ {
		if k := a.loadKey(i); k != 0 && !visit(i, k) {
			return
		}
	}
	if a.hasZero() {
		visit(zi, 0)
	}
}

// copyValOut copies min(vw, len(dst)) value words of slot i into dst with
// atomic loads; callers must validate stripe versions afterwards if reading
// optimistically.
func (a *arrays) copyValOut(i uint64, vw uint64, dst []uint64) {
	src := a.valWords(i, vw)
	for w := range min(len(src), len(dst)) {
		dst[w] = atomic.LoadUint64(&src[w])
	}
}

// storeVal writes the value words of slot i, zero-filling words beyond
// len(src); callers must hold the bucket's stripe lock. Writing all vw
// words keeps the memory-bandwidth cost of large values honest even when
// the caller supplies a short payload.
func (a *arrays) storeVal(i uint64, vw uint64, src []uint64) {
	dst := a.valWords(i, vw)
	for w := range dst {
		var v uint64
		if w < len(src) {
			v = src[w]
		}
		atomic.StoreUint64(&dst[w], v)
	}
}

// moveSlot moves key and value from slot src to the empty slot dst (indices
// into the flat arrays) and empties src; caller holds both buckets' stripe
// locks. The destination is written before the source is cleared, so the
// key is transiently present twice but never absent (§4.2).
func (a *arrays) moveSlot(src, dst uint64, vw uint64) {
	sb, db := src*vw, dst*vw
	for w := uint64(0); w < vw; w++ {
		atomic.StoreUint64(&a.vals[db+w], atomic.LoadUint64(&a.vals[sb+w]))
	}
	a.storeKey(dst, a.loadKey(src))
	a.storeKey(src, 0)
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
	arr := t.arr.Load()
	b1, b2 := hashfn.TwoBuckets(h, arr.buckets)
	t.touchPair(arr, b1, b2)
	return t.lookupHashed(key, h, dst)
}

// lookupHashed is LookupValue with the hash precomputed and no touch of its
// own (LookupBatch touched the buckets batchWindow keys earlier): the Eq. 1
// read, snapshot both candidate stripes, scan, validate, retry on a
// conflict.
func (t *Table) lookupHashed(key, h uint64, dst []uint64) bool {
	for spins := 0; ; spins++ {
		arr := t.arr.Load()
		b1, b2 := hashfn.TwoBuckets(h, arr.buckets)
		l1 := t.stripe.IndexFor(b1)
		l2 := t.stripe.IndexFor(b2)
		v1, ok1 := t.stripe.Snapshot(l1)
		v2, ok2 := t.stripe.Snapshot(l2)
		if ok1 && ok2 {
			i, found := t.find(arr, b1, b2, key)
			if found {
				arr.copyValOut(i, t.vw, dst)
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

// find returns the slot index of key in bucket b1 or b2, or key 0's own
// slot. The caller holds both buckets' stripe locks or validates their
// versions afterwards.
func (t *Table) find(arr *arrays, b1, b2, key uint64) (uint64, bool) {
	if key == 0 {
		return arr.zeroIdx(), arr.hasZero()
	}
	if i, ok := t.findIn(arr, b1, key); ok {
		return i, true
	}
	return t.findIn(arr, b2, key)
}

// findIn scans bucket b for the non-zero key, which never matches an empty
// slot.
func (t *Table) findIn(arr *arrays, b uint64, key uint64) (uint64, bool) {
	for i, end := b*t.assoc, (b+1)*t.assoc; i < end; i++ {
		if arr.loadKey(i) == key {
			return i, true
		}
	}
	return 0, false
}

// lockPair acquires the stripe locks for buckets b1 and b2 (in stripe order)
// and, in LockGlobal mode, the global writer lock first. In LockEarly mode
// the caller already holds the global lock for its whole operation.
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

// write implements Insert/Upsert/Update per Algorithm 2 plus §4.4, or per
// Algorithm 1 in LockEarly mode: the same steps, all under the writer lock.
func (t *Table) write(key uint64, val []uint64, mode writeMode) error {
	if uint64(len(val)) > t.vw {
		panic("cuckoo: value longer than ValueWords")
	}
	if t.opts.Locking == LockEarly {
		// Algorithm 1: the whole write, search included, holds the lock.
		t.global.Lock()
		defer t.global.Unlock()
	}
	h := t.hash(key)
	for {
		arr := t.arr.Load()
		b1, b2 := hashfn.TwoBuckets(h, arr.buckets)
		t.touchPair(arr, b1, b2)

		// Fast path, per Algorithm 2 lines 3–8: peek (unlocked) whether
		// either candidate bucket has a free slot; if so take the locked
		// attempt, which also performs the duplicate-key check inside the
		// critical section. Upsert/Update must take the locked attempt
		// regardless, since their duplicate handling is a write, and so
		// must key 0, which never needs a bucket slot.
		if mode != modeInsert || key == 0 || arr.hasFree(b1) || arr.hasFree(b2) {
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
		// no locks held (§4.3.1; LockEarly holds the writer lock), then
		// execute it under per-displacement pair locks. The duplicate check for the modeInsert fast-path
		// bypass happens inside the final critical section of executePath.
		sc := t.scratch.Get().(*searchScratch)
		t.probe.Searched(b1)
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
	if i, ok := t.find(arr, b1, b2, key); ok {
		return t.onExisting(arr, i, val, mode)
	}
	if mode == modeUpdate {
		return attemptAbsent
	}

	var i uint64
	ok := true
	switch {
	case key == 0:
		i = arr.zeroIdx()
	case reqSlot >= 0:
		i = arr.slotIdx(b1, reqSlot, t.assoc)
		ok = arr.loadKey(i) == 0
	default:
		if i, ok = arr.freeIn(b1); !ok {
			i, ok = arr.freeIn(b2)
		}
	}
	if !ok {
		return attemptNoSpace
	}
	t.placeAt(arr, i, key, val)
	t.size.Add(b1, 1)
	return attemptInserted
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

// placeAt publishes key/val in the empty slot i: the value first, then the
// key word that marks the slot occupied (key 0's slot stores zeroPresent).
// The caller holds the slot's stripe lock or has exclusive access, and
// accounts for the entry in size.
func (t *Table) placeAt(arr *arrays, i, key uint64, val []uint64) {
	arr.storeVal(i, t.vw, val)
	if key == 0 {
		key = zeroPresent
	}
	arr.storeKey(i, key)
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key uint64) bool {
	if t.opts.Locking == LockEarly {
		t.global.Lock()
		defer t.global.Unlock()
	}
	h := t.hash(key)
	for {
		arr := t.arr.Load()
		b1, b2 := hashfn.TwoBuckets(h, arr.buckets)
		t.touchPair(arr, b1, b2)
		l1, l2 := t.lockPair(b1, b2)
		if t.arr.Load() != arr {
			t.unlockPair(l1, l2)
			continue
		}
		i, deleted := t.find(arr, b1, b2, key)
		if deleted {
			arr.storeKey(i, 0)
			t.size.Add(b1, -1)
		}
		t.unlockPair(l1, l2)
		return deleted
	}
}

func yield() { runtimeGosched() }
