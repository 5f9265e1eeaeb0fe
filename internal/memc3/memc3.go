// Package memc3 implements the paper's starting point (§4.2): the
// optimistic multi-reader/single-writer cuckoo hash table from MemC3 [Fan
// et al., NSDI'13], as characterized by Algorithm 1.
//
//   - Readers are optimistic and lock-free, using lock-striped version
//     counters (even = quiescent) and retrying on version change.
//   - Writers serialize on one global lock held for the entire insert:
//     duplicate check, cuckoo-path search (two-way random-walk DFS) and
//     execution all happen inside the critical section.
//   - Displacements move holes backward along the path so a concurrently
//     read key is transiently duplicated but never missing.
//
// This is the "cuckoo" baseline of every figure, the table whose write
// throughput collapses with concurrent writers (Fig. 2, Fig. 6) and whose
// re-engineering into cuckoo+ is the subject of the paper.
package memc3

import (
	"errors"
	"sync/atomic"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/hugepage"
	"cuckoohash/internal/spinlock"
	"cuckoohash/internal/txarena"
)

// Errors mirroring the core package.
var (
	ErrFull   = errors.New("memc3: table is too full")
	ErrExists = errors.New("memc3: key already exists")
)

// Options configures a Table.
type Options struct {
	// Buckets is the bucket count (power of two).
	Buckets uint64
	// Assoc is the set-associativity; MemC3 uses 4.
	Assoc int
	// ValueWords is the value size in 8-byte words.
	ValueWords int
	// Stripes is the version-counter table size (power of two).
	Stripes int
	// MaxSearchSlots is the DFS search budget M (2000 in MemC3).
	MaxSearchSlots int
	// Seed perturbs the hash.
	Seed uint64
}

// Defaults returns MemC3's configuration (4-way, M=2000) sized for the
// given slot count.
func Defaults(slots uint64) Options {
	const assoc = 4
	buckets := uint64(2)
	for buckets*assoc < slots {
		buckets <<= 1
	}
	return Options{
		Buckets:        buckets,
		Assoc:          assoc,
		ValueWords:     1,
		Stripes:        4096,
		MaxSearchSlots: 2000,
	}
}

// Table is the optimistic concurrent cuckoo hash table. Any number of
// goroutines may call Lookup concurrently with each other and with at most
// the internal single writer; Insert/Delete serialize internally.
type Table struct {
	walk
	vw uint64

	keys     []uint64
	vals     []uint64
	occ      []atomic.Uint32
	versions *spinlock.Stripe
	scratch  *dfsScratch // guarded by writer

	// DisableGlobalSizeCounter avoids the shared size counter write on the
	// insert path (principle P1); Len falls back to scanning occupancy.
	// The Figure 2 experiments enable this, as the paper did.
	disableSize bool

	// The two words concurrent inserters fight over. The pad keeps them off
	// the cache line of the read-only fields above, which every caller loads
	// to hash its key before it queues for the lock: which side of a line
	// boundary the lock word fell on was worth 15-20% of Figure 2's
	// multi-thread rows.
	_      [64]byte
	writer spinlock.Mutex
	size   atomic.Int64
}

func (o Options) validate() error {
	if o.Buckets < 2 || o.Buckets&(o.Buckets-1) != 0 {
		return errors.New("memc3: Buckets must be a power of two >= 2")
	}
	if o.Assoc < 1 || o.Assoc > 32 {
		return errors.New("memc3: Assoc must be in [1,32]")
	}
	if o.ValueWords < 1 {
		return errors.New("memc3: ValueWords must be >= 1")
	}
	if o.Stripes <= 0 || o.Stripes&(o.Stripes-1) != 0 {
		return errors.New("memc3: Stripes must be a positive power of two")
	}
	if o.MaxSearchSlots < 2*o.Assoc {
		return errors.New("memc3: MaxSearchSlots too small")
	}
	return nil
}

// New creates a table.
func New(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		walk:     newWalk(o),
		vw:       uint64(o.ValueWords),
		keys:     hugepage.Make[uint64](o.Buckets * uint64(o.Assoc)),
		vals:     hugepage.Make[uint64](o.Buckets * uint64(o.Assoc) * uint64(o.ValueWords)),
		occ:      hugepage.Make[atomic.Uint32](o.Buckets),
		versions: spinlock.NewStripe(o.Stripes),
	}
	t.scratch = t.newScratch()
	t.scratch.rng = 0x9E3779B97F4A7C15
	return t, nil
}

// MustNew panics on configuration errors.
func MustNew(o Options) *Table {
	t, err := New(o)
	if err != nil {
		panic(err)
	}
	return t
}

// DisableSizeCounter turns off the shared size counter (principle P1, as
// done for the Figure 2 runs). Len becomes unavailable (returns -1).
func (t *Table) DisableSizeCounter() { t.disableSize = true }

// Len returns the number of keys, or -1 if the size counter is disabled.
func (t *Table) Len() int64 {
	if t.disableSize {
		return -1
	}
	return t.size.Load()
}

// Cap returns the slot count.
func (t *Table) Cap() uint64 { return t.nb * t.assoc }

// LoadFactor returns Len/Cap (0 if the counter is disabled).
func (t *Table) LoadFactor() float64 {
	n := t.Len()
	if n < 0 {
		return 0
	}
	return float64(n) / float64(t.Cap())
}

//lint:allow cuckoovet:blockcheck no transaction reads Table: TxTable's search reaches it only through the bucketReader interface, and passes its txSearch
func (t *Table) loadKey(i uint64) uint64 { return atomic.LoadUint64(&t.keys[i]) }

// The bucketReader of the path search; the writer lock is held.
//
//lint:allow cuckoovet:blockcheck no transaction reads Table: TxTable's search reaches it only through the bucketReader interface, and passes its txSearch
func (t *Table) loadOcc(b uint64) uint32        { return t.occ[b].Load() }
func (t *Table) slotKey(b uint64, s int) uint64 { return t.loadKey(b*t.assoc + uint64(s)) }

// Lookup returns the first value word for key via the optimistic read
// protocol.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	var v [1]uint64
	if t.LookupValue(key, v[:]) {
		return v[0], true
	}
	return 0, false
}

// LookupValue copies key's value into dst, reporting presence.
func (t *Table) LookupValue(key uint64, dst []uint64) bool {
	h := t.hash(key)
	b1, b2 := hashfn.TwoBuckets(h, t.nb)
	l1, l2 := t.versions.IndexFor(b1), t.versions.IndexFor(b2)
	for spins := 0; ; spins++ {
		v1, ok1 := t.versions.Snapshot(l1)
		v2, ok2 := t.versions.Snapshot(l2)
		if ok1 && ok2 {
			found := t.scan(b1, key, dst) || t.scan(b2, key, dst)
			if t.versions.Validate(l1, v1) && t.versions.Validate(l2, v2) {
				return found
			}
		}
		if spins >= 64 {
			yield()
			spins = 0
		}
	}
}

func (t *Table) scan(b uint64, key uint64, dst []uint64) bool {
	occ := t.occ[b].Load()
	base := b * t.assoc
	for s := 0; occ != 0; s, occ = s+1, occ>>1 {
		if occ&1 == 0 {
			continue
		}
		i := base + uint64(s)
		if t.loadKey(i) == key {
			vb := i * t.vw
			n := t.vw
			if uint64(len(dst)) < n {
				n = uint64(len(dst))
			}
			for w := uint64(0); w < n; w++ {
				dst[w] = atomic.LoadUint64(&t.vals[vb+w])
			}
			return true
		}
	}
	return false
}

// Insert adds key (Algorithm 1): the global writer lock is held for the
// whole operation, including the path search.
func (t *Table) Insert(key, val uint64) error {
	return t.InsertValue(key, []uint64{val})
}

// InsertValue is Insert for multi-word values.
func (t *Table) InsertValue(key uint64, val []uint64) error {
	if uint64(len(val)) > t.vw {
		panic("memc3: value longer than ValueWords")
	}
	h := t.hash(key)
	b1, b2 := hashfn.TwoBuckets(h, t.nb)

	t.writer.Lock()
	defer t.writer.Unlock()

	if t.findLocked(b1, key) >= 0 || t.findLocked(b2, key) >= 0 {
		return ErrExists
	}
	// ADD(h, b1) / ADD(h, b2)
	if s, ok := t.freeSlot(b1); ok {
		t.place(b1, s, key, val)
		return nil
	}
	if s, ok := t.freeSlot(b2); ok {
		t.place(b2, s, key, val)
		return nil
	}
	// SEARCH + EXECUTE, all inside the critical section.
	for {
		path, ok := t.search(t, t.scratch, b1, b2)
		if !ok {
			return ErrFull
		}
		i := len(path) - 2
		for ; i >= 0 && t.slotKey(path[i].bucket, path[i].slot) == path[i].key; i-- {
			t.displace(path[i], path[i+1])
		}
		if i < 0 {
			t.place(path[0].bucket, path[0].slot, key, val)
			return nil
		}
		// The walk crossed itself (see walk.search): search again.
	}
}

// findLocked scans bucket b for key under the writer lock; returns the slot
// or -1.
func (t *Table) findLocked(b uint64, key uint64) int {
	occ := t.occ[b].Load()
	base := b * t.assoc
	for s := 0; occ != 0; s, occ = s+1, occ>>1 {
		if occ&1 != 0 && t.loadKey(base+uint64(s)) == key {
			return s
		}
	}
	return -1
}

func (t *Table) freeSlot(b uint64) (int, bool) {
	return txarena.FreeSlot(t.occ[b].Load(), int(t.assoc))
}

// place writes (b,s) under the writer lock, bumping the bucket's version
// stripe around the modification for optimistic readers.
func (t *Table) place(b uint64, s int, key uint64, val []uint64) {
	l := t.versions.IndexFor(b)
	t.versions.Lock(l)
	i := b*t.assoc + uint64(s)
	atomic.StoreUint64(&t.keys[i], key)
	vb := i * t.vw
	for w := uint64(0); w < t.vw; w++ {
		var v uint64
		if w < uint64(len(val)) {
			v = val[w]
		}
		atomic.StoreUint64(&t.vals[vb+w], v)
	}
	t.occ[b].Store(t.occ[b].Load() | 1<<uint(s))
	t.versions.Unlock(l)
	if !t.disableSize {
		t.size.Add(1)
	}
}

// displace moves the key in src to the empty slot dst (hole-backward),
// bumping both buckets' versions.
func (t *Table) displace(src, dst entry) {
	l1, l2 := t.versions.IndexFor(src.bucket), t.versions.IndexFor(dst.bucket)
	t.versions.LockPair(l1, l2)
	si := src.bucket*t.assoc + uint64(src.slot)
	di := dst.bucket*t.assoc + uint64(dst.slot)
	atomic.StoreUint64(&t.keys[di], atomic.LoadUint64(&t.keys[si]))
	sv, dv := si*t.vw, di*t.vw
	for w := uint64(0); w < t.vw; w++ {
		atomic.StoreUint64(&t.vals[dv+w], atomic.LoadUint64(&t.vals[sv+w]))
	}
	t.occ[dst.bucket].Store(t.occ[dst.bucket].Load() | 1<<uint(dst.slot))
	t.occ[src.bucket].Store(t.occ[src.bucket].Load() &^ (1 << uint(src.slot)))
	t.versions.UnlockPair(l1, l2)
}

// Delete removes key under the writer lock, reporting presence.
func (t *Table) Delete(key uint64) bool {
	h := t.hash(key)
	b1, b2 := hashfn.TwoBuckets(h, t.nb)
	t.writer.Lock()
	defer t.writer.Unlock()
	for _, b := range [2]uint64{b1, b2} {
		if s := t.findLocked(b, key); s >= 0 {
			l := t.versions.IndexFor(b)
			t.versions.Lock(l)
			t.occ[b].Store(t.occ[b].Load() &^ (1 << uint(s)))
			t.versions.Unlock(l)
			if !t.disableSize {
				t.size.Add(-1)
			}
			return true
		}
	}
	return false
}

func yield() { spinYield() }
