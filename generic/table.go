// Package generic provides a general-purpose concurrent cuckoo hash table
// for arbitrary key and value types — the libcuckoo-style variant the paper
// describes in §7: "supports variable length key value pairs of arbitrary
// types, including those with pointers or strings, provides iterators, and
// dynamically resizes itself as it fills. The price of this generality is
// that it uses locks for reads as well as writes, so that pointer-valued
// items can be safely dereferenced, at the cost of a 5-20% slowdown."
//
// A key's critical section has one owner. pin takes the stripes of the
// key's candidate buckets in every generation and retries until the
// generation set it locked under is still the published one; locate is the
// one probe — generations × two buckets × tag words, a key looked at only
// behind a matching tag. Get and GetBytes are pin → locate → copy the
// value out. Update is the one keyed write — lock → validate → locate →
// decide → keep, overwrite in place, fold forward, place or clear — and
// Insert, Upsert and Delete are what it does with a fixed decision; reads
// take the (very short) lock instead of running optimistically because
// values of arbitrary type cannot be copied tear-free without it. Section
// is the same critical section over several keys at once, for a caller's
// multi-key commit: one ascending acquisition of all their stripes.
//
// It is a partial-key cuckoo table, MemC3's: a slot's tag is the key's
// hash's top byte, the first bucket is the rest of the hash reduced to the
// bucket count, and the second is the first reflected through a point
// hashed from the tag (altOf) — so the other bucket of any entry is
// computable from the slot alone, in a table of any even bucket count. When
// both candidate buckets are full the write path is the same BFS +
// lock-after-discovery algorithm as the specialized cuckoohash.Map
// (search.go), run on tag words: the search reads them with no lock held
// (§4.3.1), shift moves the discovered path's entries last hop first, each
// hop validated by tag under its stripes, and no key is read or hashed
// between "both buckets full" and "a slot is free". What still turns a slot
// into its key is locate's compare behind a matching tag, Oldest, the
// migrator (a grown table reduces the hash to a new bucket count, which a
// slot's tag cannot) and Range.
// Resizing is incremental: a grow publishes a live generation half again
// as large next to the old one and drains it a bounded batch of buckets at
// a time, so no operation ever pauses for a full-table rehash and nothing
// outside tests takes the whole stripe table. The table alone paces the
// drain (migrate.go): each write made during a migration drains two
// buckets, and a background sweeper finishes it once the writes stop.
package generic

import (
	"errors"
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"

	"cuckoohash/internal/hugepage"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/spinlock"
)

// ErrFull is returned by a store (Update, Insert, Upsert) when no slot is
// reachable and automatic resizing is disabled (or capped by MaxCapacity).
// A search that exhausts its budget records the Len it started from; until
// Len falls below that mark — a removal, or a grow or Clear, which forget
// it — a key whose two buckets are full gets ErrFull without repeating a
// search that just proved futile.
var ErrFull = errors.New("generic: table is too full")

// ErrExists is returned by Insert when the key is already present.
var ErrExists = errors.New("generic: key already exists")

// Config configures a Table.
type Config struct {
	// InitialCapacity is the initial slot count (default 1024), rounded up
	// to an even number of buckets.
	InitialCapacity uint64
	// MaxCapacity, when nonzero, bounds put-driven automatic growth. Each
	// grow makes the table half again as large, and the last one, taken
	// once it is at most a doubling, goes to MaxCapacity exactly (rounded
	// down to an even number of buckets); past it Insert returns ErrFull,
	// like a fixed-size table at its limit. Migration-escalation grows may
	// transiently exceed the bound to guarantee drains terminate.
	MaxCapacity uint64
	// Associativity is the bucket width (default 4, libcuckoo's default).
	Associativity int
	// DisableAutoGrow turns off resize-on-full; Insert then returns
	// ErrFull like the fixed-size tables.
	DisableAutoGrow bool
	// OnGrowEvent, when non-nil, is called at every grow state change
	// (start and finish) from the goroutine driving the transition. It
	// must be fast and must not call back into the table.
	OnGrowEvent func(GrowEvent)
}

func (c *Config) setDefaults() {
	if c.InitialCapacity == 0 {
		c.InitialCapacity = 1024
	}
	if c.Associativity == 0 {
		c.Associativity = 4
	}
}

// lockStripes is the striped-lock table's size, a power of two: a bucket
// maps to stripe bucket&(lockStripes-1). With MaxCapacity set, a table
// allocates at most one stripe per two buckets at that capacity (the
// largest power of two that fits), as §4.4's lock array is sized for
// concurrency rather than one word per bucket.
const lockStripes = 4096

// Table is a concurrent cuckoo hash table mapping K to V. All methods are
// safe for concurrent use.
type Table[K comparable, V any] struct {
	cfg   Config
	seed  maphash.Seed
	assoc uint64
	// keyOf is non-nil in a keyed table (NewKeyed): the value carries its
	// key, so the arrays store no keys and a slot's key is keyOf(value).
	keyOf  func(V) K
	words  uint64 // tag words per bucket, ⌈assoc/4⌉
	pad    uint32 // ones in the bytes of a bucket's last tag word past its last slot
	locks  *spinlock.Stripe
	growMu sync.Mutex // serializes generation-set changes and full walks
	state  atomic.Pointer[genState[K, V]]
	size   metrics.ShardedCounter

	probe           metrics.Probe
	growCount       atomic.Uint64
	migratedBuckets atomic.Uint64
}

type tArrays[K comparable, V any] struct {
	buckets uint64
	keys    []K // nil in a keyed table
	vals    []V
	// tags holds one byte per slot, packed four to a word: slot s of bucket
	// b is byte s%4 of the bucket's word s/4, and each bucket starts a word
	// of its own (bucketTags). A byte is 0 for an empty slot, otherwise a
	// byte of its key's hash (tagOf, never 0) — MemC3's partial-key tag,
	// which is also the bucket's occupancy. A probe matches a whole word at
	// a time (matchTag) before it compares — in a keyed table, before it
	// dereferences — any key, and a slot that moves (displace, migration)
	// carries its tag along. Written only under the bucket's stripe and
	// always a whole word with atomic.StoreUint32 (setTag), so a path search
	// can read them with no stripe held.
	tags []uint32

	// fullAt is the search mark: the table's Len when a path search in
	// these arrays last ran out of budget, 0 when none has (or since
	// Clear). It lives with the arrays so that a grow, which publishes
	// fresh ones, forgets it, and a search that lost a race with the grow
	// marks only the generation it searched.
	fullAt atomic.Uint64
}

// New creates a Table that stores each key beside its value.
func New[K comparable, V any](cfg Config) (*Table[K, V], error) {
	return newTable[K, V](cfg, nil)
}

// NewKeyed creates a Table whose values carry their keys: keyOf extracts
// the key from a stored value, the table keeps no key array, and a slot
// costs one V plus its tag byte. It is the MemC3 layout — a partial-key
// tag and one reference per slot to an item that holds its own key — for
// callers whose V is such a reference. Every method behaves as on a plain
// table; the key passed to Insert and Upsert must equal keyOf(val), and
// keyOf must be cheap, pure and safe to call under a bucket's stripe.
func NewKeyed[K comparable, V any](cfg Config, keyOf func(V) K) (*Table[K, V], error) {
	if keyOf == nil {
		return nil, errors.New("generic: NewKeyed needs a keyOf function")
	}
	return newTable(cfg, keyOf)
}

func newTable[K comparable, V any](cfg Config, keyOf func(V) K) (*Table[K, V], error) {
	cfg.setDefaults()
	if cfg.Associativity < 1 || cfg.Associativity > 32 {
		return nil, errors.New("generic: Associativity must be in [1,32]")
	}
	if cfg.MaxCapacity != 0 && cfg.MaxCapacity < cfg.InitialCapacity {
		return nil, errors.New("generic: MaxCapacity below InitialCapacity")
	}
	assoc := uint64(cfg.Associativity)
	buckets := max(2, (cfg.InitialCapacity+2*assoc-1)/assoc&^1)
	stripes := lockStripes
	if maxBuckets := maxBucketsOf(cfg); maxBuckets != 0 {
		// Put-driven growth stops at maxBuckets, and there at least two
		// buckets share a stripe, as they do in any table larger than its
		// stripe table (a forced drain-escalation grow makes it more for a
		// while). Buckets a key locks together that share one are locked
		// once: LockPair and LockOrdered dedup.
		buckets = min(buckets, maxBuckets)
		stripes = min(stripes, 1<<(bits.Len64(maxBuckets/2)-1))
	}
	t := &Table[K, V]{
		cfg:   cfg,
		seed:  maphash.MakeSeed(),
		assoc: assoc,
		keyOf: keyOf,
		words: (assoc + 3) / 4,
		locks: spinlock.NewStripe(stripes),
		size:  metrics.NewShardedCounter(min(maxSizeShards, max(1, stripes/stripesPerSizeShard))),
		probe: metrics.NewProbe(min(maxProbeShards, max(1, stripes/stripesPerProbeShard))),
	}
	if r := assoc % 4; r != 0 {
		t.pad = ^uint32(0) << (8 * r)
	}
	t.state.Store(&genState[K, V]{live: t.newArrays(buckets)})
	return t, nil
}

// maxBucketsOf is the bucket count put-driven growth stops at: MaxCapacity
// over the bucket width, rounded down to even and at least 2, or 0 when
// growth is unbounded.
func maxBucketsOf(cfg Config) uint64 {
	if cfg.MaxCapacity == 0 {
		return 0
	}
	return max(2, cfg.MaxCapacity/uint64(cfg.Associativity)&^1)
}

// A table's padded counters are sized by the table, as its lock probes are
// (spinlock.NewStripe): a table with few stripes is a small shard of some
// larger store, which builds dozens of it and already spread its writers
// when it picked the shard. The size counter, which every insert and delete
// moves, gets one padded line per 32 lock stripes — half the lock words' own
// bytes — up to the 64 a table that is the whole store has always had: 8
// lines beside a 2 048-slot table's 256 stripes. Two writers kept on one
// such table (BenchmarkInsertDeletePair at -cpu 2) pay for both halvings,
// ~10 ns of 240 for the shared lock-word lines and ~7 for the counter's; a
// store of dozens of shards rarely puts two writers on one. The probe, which
// only a path search touches, gets a shard per 256, up to 8.
const (
	stripesPerSizeShard  = 32
	maxSizeShards        = 64
	stripesPerProbeShard = 256
	maxProbeShards       = 8
)

// MustNew panics on configuration errors.
func MustNew[K comparable, V any](cfg Config) *Table[K, V] {
	t, err := New[K, V](cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table[K, V]) newArrays(buckets uint64) *tArrays[K, V] {
	arr := &tArrays[K, V]{
		buckets: buckets,
		vals:    hugepage.Make[V](buckets * t.assoc),
		tags:    hugepage.Make[uint32](buckets * t.words),
	}
	if t.keyOf == nil {
		arr.keys = hugepage.Make[K](buckets * t.assoc)
	}
	return arr
}

// keyAt returns the key of occupied slot i: the stored one, or in a keyed
// table the one its value carries. Caller holds the slot's stripe.
func (t *Table[K, V]) keyAt(arr *tArrays[K, V], i uint64) K {
	if t.keyOf != nil {
		return t.keyOf(arr.vals[i])
	}
	return arr.keys[i]
}

// bucketTags returns bucket b's tag words. Caller holds the bucket's
// stripe, or only reads them, atomically, as a path search does.
func (t *Table[K, V]) bucketTags(arr *tArrays[K, V], b uint64) []uint32 {
	return arr.tags[b*t.words : (b+1)*t.words]
}

// matchTag returns the top bit of every byte of w that equals tag: the
// zero-byte test (SWAR) on w with tag xored out of every byte. Its lowest
// set bit is exact. A byte above a true match can be set as well when it
// equals tag^1 (the borrow out of the match), so a caller that goes past
// the lowest bit re-checks the byte.
func matchTag(w uint32, tag uint8) uint32 {
	v := w ^ uint32(tag)*0x01010101
	return (v - 0x01010101) &^ v & 0x80808080
}

// usedIn returns the top bit of every nonzero byte of w, exactly: adding
// 0x7f to a byte's low seven bits carries into its top bit unless they are
// all 0, and no byte's sum carries out into the next.
func usedIn(w uint32) uint32 {
	return (w&0x7f7f7f7f + 0x7f7f7f7f | w) & 0x80808080
}

// freeIn returns the first empty slot among the four of word j of a
// bucket's n tag words, 4 when every one is taken: matchTag's lowest match
// of 0, which is exact. A last word's bytes past the bucket's last slot
// read as taken.
func (t *Table[K, V]) freeIn(w uint32, j, n int) int {
	if j == n-1 {
		w |= t.pad
	}
	return bits.TrailingZeros32(matchTag(w, 0)) / 8
}

// used returns the occupied slots of the bucket whose tag words ws are, bit
// s for slot s: each word's usedIn, its four top bits gathered by one
// multiply into a nibble.
func used(ws []uint32) (m uint32) {
	for j := range ws {
		m |= usedIn(atomic.LoadUint32(&ws[j])) >> 7 * 0x10204080 >> 28 << (4 * j)
	}
	return m
}

// tagIn returns slot s's tag from its bucket's tag words ws.
func tagIn(ws []uint32, s int) uint8 {
	return uint8(atomic.LoadUint32(&ws[s>>2]) >> (s & 3 * 8))
}

// setTag writes slot s's tag into its bucket's tag words ws, the whole
// word at once. Caller holds the bucket's stripe, so no other byte of the
// word changes meanwhile.
func setTag(ws []uint32, s int, tag uint8) {
	p, shift := &ws[s>>2], s&3*8
	atomic.StoreUint32(p, atomic.LoadUint32(p)&^(0xff<<shift)|uint32(tag)<<shift)
}

// tagOf is the slot tag of a key with hash h: the hash's top byte, bits
// 56-63, which the first bucket index (bits 0-55, twoBuckets) does not
// read. The tag names the key's second bucket
// (altOf), so a tag that overlapped the first bucket's bits would tie the
// two choices together and cost load factor silently; and two keys that
// share a bucket still differ in their tags 254 times in 255. It is never
// 0, the tag of an empty slot: a hash whose byte is 0 takes 1 (tag-1 wraps
// to all ones for 0 alone; spelled without a branch because every probe
// computes it, once per generation).
func tagOf(h uint64) uint8 {
	tag := uint32(h >> 56)
	return uint8(tag + (tag-1)>>31)
}

// Len returns the number of stored keys.
func (t *Table[K, V]) Len() uint64 { return uint64(t.size.Total()) }

// Cap returns the live generation's slot count. During a migration the
// table transiently holds the draining generations' arrays too, but new
// values only ever land in the live slots.
func (t *Table[K, V]) Cap() uint64 { return t.loadState().live.buckets * t.assoc }

// LoadFactor returns Len/Cap.
func (t *Table[K, V]) LoadFactor() float64 { return float64(t.Len()) / float64(t.Cap()) }

// LockStats returns the stripe table's lock-contention counters.
func (t *Table[K, V]) LockStats() spinlock.StripeStats { return t.locks.Stats() }

// hash hashes key. A string key hashes as its bytes do — GetBytes probes
// with maphash.Bytes — at every length: maphash.Comparable agrees with
// Bytes only up to 128 bytes (past that Bytes and String hash in blocks,
// Comparable does not), which used to make a longer key written through
// Upsert invisible to GetBytes.
func (t *Table[K, V]) hash(key K) uint64 {
	if s, ok := any(key).(string); ok {
		return maphash.String(t.seed, s)
	}
	return maphash.Comparable(t.seed, key)
}

// twoBuckets returns the candidate buckets of a key with hash h among n:
// the hash below its tag byte scaled to [0, n) by multiply-shift range
// reduction, so n need not be a power of two, and the bucket its tag names
// from there — MemC3's partial-key cuckoo hashing.
func twoBuckets(h, n uint64) (uint64, uint64) {
	b1, _ := bits.Mul64(h<<8, n)
	return b1, altOf(b1, tagOf(h), n)
}

// altOf returns the other candidate bucket of an entry with this tag that
// sits in bucket b of a table of n buckets, n even. It is the only place an
// alternate bucket is computed, and it needs the slot alone: the bucket is
// b reflected through c, a hash of the tag scaled to the table and made
// odd, (c - b) mod n. Reflection is its own inverse — altOf(altOf(b)) == b,
// whichever of the two b was — and b + altOf(b) ≡ c is odd, so the other
// bucket is a different one and, IndexFor keeping a bucket's low bits, on
// a different lock stripe of any two or more. The hash is not linear in
// the tag: two hops by tags t and u move an entry by c_u - c_t, and were c
// linear those moves would depend on u - t alone, collapsing the reach of
// a path search (results/SWEEP_altbucket.txt: 0.011 of load at 2^20 slots).
func altOf(b uint64, tag uint8, n uint64) uint64 {
	x := uint64(tag) * 0x9E3779B97F4A7C15
	x = (x ^ x>>31) * 0xBF58476D1CE4E5B9
	c, _ := bits.Mul64(x, n)
	c |= 1
	if b > c {
		c += n
	}
	return c - b
}

// lockPair acquires the stripes of b1 and b2 in order and returns them.
func (t *Table[K, V]) lockPair(b1, b2 uint64) (uint64, uint64) {
	l1, l2 := t.locks.IndexFor(b1), t.locks.IndexFor(b2)
	t.locks.LockPair(l1, l2)
	return l1, l2
}

// stripesOf appends to buf the stripes of the candidate buckets of the key
// with hash h in every generation of st: the two live candidates plus two
// per draining generation.
func (t *Table[K, V]) stripesOf(st *genState[K, V], h uint64, buf []uint64) []uint64 {
	b1, b2 := twoBuckets(h, st.live.buckets)
	//lint:allow cuckoovet:allocfree appends fill the caller's fixed 8-slot scratch: live pair plus two per draining generation spills only past three concurrent generations
	buf = append(buf, t.locks.IndexFor(b1), t.locks.IndexFor(b2))
	for _, g := range st.olds {
		ob1, ob2 := twoBuckets(h, g.arr.buckets)
		//lint:allow cuckoovet:allocfree appends fill the caller's fixed 8-slot scratch: live pair plus two per draining generation spills only past three concurrent generations
		buf = append(buf, t.locks.IndexFor(ob1), t.locks.IndexFor(ob2))
	}
	return buf
}

// lockAllGens acquires, in globally ascending order, the stripes of the key
// with hash h in every generation of st (stripesOf), reporting whether any
// was held by another. buf is caller scratch so the common cases stay
// allocation-free.
func (t *Table[K, V]) lockAllGens(st *genState[K, V], h uint64, buf []uint64) ([]uint64, bool) {
	return t.locks.LockOrdered(t.stripesOf(st, h, buf))
}

// pin opens key hash h's critical section: it loads the generation set and
// takes the stripes of h's candidate buckets in every generation of it,
// again until the set it locked under is still the published one (Eq. 1's
// validate, under the locks). Until the caller hands the returned stripes
// to UnlockOrdered, no generation can be published or retired and no slot
// the key could occupy can change. buf is caller scratch, as in
// lockAllGens.
func (t *Table[K, V]) pin(h uint64, buf []uint64) (*genState[K, V], []uint64) {
	for {
		st := t.loadState()
		locked, _ := t.lockAllGens(st, h, buf)
		if t.stateValid(st) {
			return st, locked
		}
		t.locks.UnlockOrdered(locked)
	}
}

// locate is the one probe: it returns the arrays, bucket and slot index
// holding the key with hash h that match accepts. It walks the draining
// generations, oldest first, then the live one — every operation in the
// same order. Under the caller's stripes any order finds the same slot: a
// key lives in exactly one slot of one generation (migrate.go). This one
// is the direction keys move, so a reader that stops taking the stripes
// (Eq. 1) can keep it: a key that leaves a generation behind the probe is
// already in the one ahead. Only a slot whose tag matches — an occupied
// one, tags being nonzero — has its key looked at, so match runs at most
// once per tag match; matchTag finds them a word at a time. Caller holds
// the stripes of h's candidate buckets in every generation of st.
func (t *Table[K, V]) locate(st *genState[K, V], h uint64, match func(K) bool) (arr *tArrays[K, V], bucket, index uint64, ok bool) {
	tag := tagOf(h)
	for g := 0; g <= len(st.olds); g++ {
		arr = st.live
		if g < len(st.olds) {
			arr = st.olds[g].arr
		}
		b1, b2 := twoBuckets(h, arr.buckets)
		for _, b := range [2]uint64{b1, b2} {
			ws := t.bucketTags(arr, b)
			for j := range ws {
				w := atomic.LoadUint32(&ws[j])
				for m := matchTag(w, tag); m != 0; m &= m - 1 {
					shift := bits.TrailingZeros32(m) &^ 7
					if uint8(w>>shift) != tag {
						continue // matchTag's borrow, not a match
					}
					if i := b*t.assoc + uint64(4*j+shift/8); match(t.keyAt(arr, i)) {
						return arr, b, i, true
					}
				}
			}
		}
	}
	return nil, 0, 0, false
}

// Get returns the value for key. The candidate buckets' locks are held
// just long enough to copy the value out (§7: locked reads make
// pointer-valued items safe to hand to the caller).
//
//cuckoo:hotpath the table read path (§7 locked reads)
func (t *Table[K, V]) Get(key K) (V, bool) {
	return t.get(t.hash(key), func(k K) bool { return k == key })
}

// get is the read behind Get and GetBytes, which differ only in the hash
// they pass and the comparison they close over.
func (t *Table[K, V]) get(h uint64, match func(K) bool) (v V, ok bool) {
	var lockBuf [8]uint64
	st, locked := t.pin(h, lockBuf[:0])
	if arr, _, i, found := t.locate(st, h, match); found {
		// linearization point: the value is read while the pin keeps every
		// writer of the key out of all its candidate buckets.
		v, ok = arr.vals[i], true
	}
	t.locks.UnlockOrdered(locked)
	return v, ok
}

// Action is what an Update's decide function asks of the table.
type Action uint8

const (
	// Keep leaves the key as decide found it.
	Keep Action = iota
	// Store writes the value decide returned: over the resident one in
	// place, or into a free live slot.
	Store
	// Remove clears the key's slot; for an absent key it is Keep.
	Remove
)

// Update is the table's one keyed write. It pins key — the stripes of its
// candidate buckets in every generation — locates it once, and applies
// what decide(cur, found) returns before the pin is released, so a check
// and the write it decides are one critical section (found is false and
// cur the zero V for an absent key). A Store that finds both live
// candidate buckets full releases the pin, opens a slot by a path search
// or grows the table, and runs decide again under the fresh pin. It
// returns what it applied — Keep for a Remove of an absent key — and
// ErrFull, having applied nothing, when no slot is reachable and growth is
// disabled or capped. decide runs under bucket stripes: it only compares
// and builds, never blocks and never calls into t. In a keyed table a
// stored value's key must equal key. Like every write, Update pays its
// share of an in-flight migration's drain once its stripes are released.
func (t *Table[K, V]) Update(key K, decide func(cur V, found bool) (V, Action)) (Action, error) {
	return t.UpdateThen(key, decide, nil)
}

// UpdateThen is Update with a step that runs under the same pin right after
// the decision is applied: then(val, act, waited) gets the value decide
// returned, what was applied, and whether that pin had to wait for a stripe
// another held. It runs exactly once — never for a decision that found no
// room and runs again — so what must follow a write in the key's own order,
// exactly once per applied write, belongs there. then is held to decide's
// rules; a nil then is Update.
//
//cuckoo:hotpath the table write path; search/grow/migrate are the audited slow paths
func (t *Table[K, V]) UpdateThen(key K, decide func(cur V, found bool) (V, Action), then func(val V, act Action, waited bool)) (Action, error) {
	h := t.hash(key)
	for {
		observed := t.loadState().live.buckets
		act, err := t.tryUpdate(h, key, decide, then)
		if err == ErrFull && !t.cfg.DisableAutoGrow && t.grow(observed) {
			continue
		}
		t.migrateBatch(writeDrain)
		return act, err
	}
}

// Insert adds key, returning ErrExists if present. With auto-grow enabled
// (the default) it resizes instead of returning ErrFull.
func (t *Table[K, V]) Insert(key K, val V) error {
	act, err := t.Update(key, func(_ V, found bool) (V, Action) {
		if found {
			return val, Keep
		}
		return val, Store
	})
	if err == nil && act == Keep {
		return ErrExists
	}
	return err
}

// Upsert inserts or overwrites key.
func (t *Table[K, V]) Upsert(key K, val V) error {
	_, err := t.Update(key, func(V, bool) (V, Action) { return val, Store })
	return err
}

// Delete removes key, reporting whether it was present. The removal may
// land in either generation: clearing an old-generation slot is the same
// write migration itself performs.
func (t *Table[K, V]) Delete(key K) bool {
	act, _ := t.Update(key, func(V, bool) (v V, _ Action) { return v, Remove })
	return act == Remove
}

// tryUpdate is one Update without growing or draining: the in-place fast
// path, then BFS path search (the audited slow path) when a store needs a
// slot.
func (t *Table[K, V]) tryUpdate(h uint64, key K, decide func(V, bool) (V, Action), then func(V, Action, bool)) (Action, error) {
	for {
		st := t.loadState()
		b1, b2 := twoBuckets(h, st.live.buckets)

		act, res := t.attempt(st, h, b1, b2, key, decide, then, -1)
		if res == putNoSpace {
			// The mark is the Len the failed search started from, so a
			// delete that made room while it ran re-arms the next one.
			n := t.Len()
			if mark := st.live.fullAt.Load(); mark != 0 && n >= mark && len(st.olds) == 0 {
				return Keep, ErrFull
			}
			if head, hops, freed := t.openSlot(st, b1, b2); hops >= 0 {
				t.probe.ObservePath(b1, uint64(hops))
				if freed {
					// The head is b1 or b2: insert into its free slot.
					act, res = t.attempt(st, h, head.bucket, b1^b2^head.bucket, key, decide, then, head.slot)
				}
				if !freed || res == putNoSpace || res == putStale {
					// Path invalidated or generations swapped (Eq. 1); retry.
					t.probe.Restarted(b1)
					continue
				}
			} else if act, res = t.attempt(st, h, b1, b2, key, decide, then, -1); res == putNoSpace {
				// Still no room on the re-check under the lock: give up. A
				// search that failed mid-migration says nothing about the
				// settled table, whose keys Len already counts.
				if len(st.olds) == 0 {
					st.live.fullAt.Store(n)
				}
				return Keep, ErrFull
			}
		}
		if res == putDone {
			return act, nil
		}
		// putStale: the generation set changed under us; retry.
	}
}

type putResult int

const (
	putDone putResult = iota
	putNoSpace
	putStale
)

// attempt runs decide under the key's full cross-generation lock set,
// applies what it returns and runs then. reqSlot >= 0 pins an insert to
// that slot of b1 (the head of a discovered cuckoo path). A republished
// generation set is putStale, not a retry here: the caller's buckets and
// path were computed against st.
func (t *Table[K, V]) attempt(st *genState[K, V], h, b1, b2 uint64, key K, decide func(V, bool) (V, Action), then func(V, Action, bool), reqSlot int) (Action, putResult) {
	var lockBuf [8]uint64
	locked, waited := t.lockAllGens(st, h, lockBuf[:0])
	defer t.locks.UnlockOrdered(locked)
	if !t.stateValid(st) {
		return Keep, putStale
	}
	val, act, ok := t.update(st, h, b1, b2, key, decide, reqSlot)
	if !ok {
		return Keep, putNoSpace
	}
	if then != nil {
		then(val, act, waited)
	}
	return act, putDone
}

// update locates the key with hash h under the caller's pin of st, runs
// decide on what it finds and applies the result, returning the value
// decide returned and what was applied. A stored key found in the live
// arrays is updated in place; one found in a draining generation is folded
// forward — the new value lands in a live slot and the old slot is cleared
// — so writers always land in the live generation. ok is false, nothing
// changed, for a Store that needs a live slot when b1 and b2 (or, with
// reqSlot >= 0, that slot of b1) have none.
func (t *Table[K, V]) update(st *genState[K, V], h, b1, b2 uint64, key K, decide func(V, bool) (V, Action), reqSlot int) (val V, act Action, ok bool) {
	live := st.live
	arr, ab, i, found := t.locate(st, h, func(k K) bool { return k == key })
	var cur V
	if found {
		cur = arr.vals[i]
	}
	val, act = decide(cur, found)
	switch {
	case act == Remove && found:
		t.clearSlot(arr, ab, i) // linearization point of a removal
		t.size.Add(ab, -1)
		return val, Remove, true
	case act != Store:
		return val, Keep, true
	case found && arr == live:
		live.vals[i] = val // linearization point of an overwrite
		return val, Store, true
	}
	s, ok := t.liveSlotFor(live, b1, b2, reqSlot)
	if !ok {
		return val, Keep, false
	}
	// linearization point of an insert, and of a fold-forward: the key is
	// placed at its destination before its old-generation slot is cleared
	// (§4.2's rule for a moving key), so the order already holds when a
	// reader stops taking these stripes and could otherwise see the key in
	// neither generation.
	t.place(live, s.bucket, s.slot, key, val, tagOf(h))
	if found {
		t.clearSlot(arr, ab, i)
	} else {
		t.size.Add(s.bucket, 1)
	}
	return val, Store, true
}

// Section runs fn holding every key of keys at once: the stripes of their
// candidate buckets in every generation, taken in one ascending
// acquisition (the §4.4 rule) and re-checked against the published
// generation set as pin does. Until fn returns no other writer can touch
// the keys. Through sec it reads them, stores into a key's own live
// buckets and removes; it never searches or grows, so a store that needs a
// slot its key's buckets lack fails, and the caller makes room (MakeRoom)
// with the section released. A caller holding several tables' sections
// takes them in one order of its own. fn is held to Update's decide rules.
func (t *Table[K, V]) Section(keys []K, fn func(sec Section[K, V])) {
	var buf [16]uint64
	idxs := buf[:0]
	for {
		st := t.loadState()
		idxs = idxs[:0]
		for _, k := range keys {
			idxs = t.stripesOf(st, t.hash(k), idxs)
		}
		locked, _ := t.locks.LockOrdered(idxs)
		if t.stateValid(st) {
			fn(Section[K, V]{t: t, st: st})
			t.locks.UnlockOrdered(locked)
			return
		}
		t.locks.UnlockOrdered(locked)
	}
}

// A Section is Table.Section's hold of its keys.
type Section[K comparable, V any] struct {
	t  *Table[K, V]
	st *genState[K, V]
}

// Update is Table.Update of key, one of the section's keys, under the
// section's hold: it applies what decide(cur, found) returns. ok is false,
// with nothing applied, for a Store that needs a live slot when the key's
// two live buckets are full.
func (s Section[K, V]) Update(key K, decide func(cur V, found bool) (V, Action)) (act Action, ok bool) {
	h := s.t.hash(key)
	b1, b2 := twoBuckets(h, s.st.live.buckets)
	_, act, ok = s.t.update(s.st, h, b1, b2, key, decide, -1)
	return act, ok
}

// MakeRoom tries to free a live slot for key, holding no stripe when it is
// called: a path search shifts entries out of one of key's live buckets,
// or, when the search finds no path, the table grows. It returns ErrFull
// when neither is possible — growth disabled or capped — and says nothing
// of whether the slot is still free by the time the caller pins key again.
//
//cuckoo:coldpath the insert slow path behind a section's failed store: a search, or a grow
func (t *Table[K, V]) MakeRoom(key K) error {
	st := t.loadState()
	b1, b2 := twoBuckets(t.hash(key), st.live.buckets)
	if _, hops, _ := t.openSlot(st, b1, b2); hops >= 0 {
		return nil
	}
	if !t.cfg.DisableAutoGrow && t.grow(st.live.buckets) {
		return nil
	}
	return ErrFull
}

// liveTarget names a (bucket, slot) destination in the live arrays.
type liveTarget struct {
	bucket uint64
	slot   int
}

// liveSlotFor picks the destination slot for a value landing in the
// live generation: the pinned path-head slot when reqSlot >= 0,
// otherwise the first free slot of the emptier candidate, b1 on a tie
// (its tag words are the ones locate just read). Caller holds the
// stripes.
func (t *Table[K, V]) liveSlotFor(live *tArrays[K, V], b1, b2 uint64, reqSlot int) (liveTarget, bool) {
	if reqSlot >= 0 {
		if tagIn(t.bucketTags(live, b1), reqSlot) != 0 {
			return liveTarget{}, false
		}
		return liveTarget{bucket: b1, slot: reqSlot}, true
	}
	b, ws := b1, t.bucketTags(live, b1)
	if ws2 := t.bucketTags(live, b2); bits.OnesCount32(used(ws2)) < bits.OnesCount32(used(ws)) {
		b, ws = b2, ws2
	}
	if s, ok := t.freeSlot(ws); ok {
		return liveTarget{bucket: b, slot: s}, true
	}
	return liveTarget{}, false
}

// place fills free slot s of bucket b; caller holds the bucket's stripe
// and accounts for size itself.
func (t *Table[K, V]) place(arr *tArrays[K, V], b uint64, s int, key K, val V, tag uint8) {
	i := b*t.assoc + uint64(s)
	if arr.keys != nil {
		arr.keys[i] = key
	}
	arr.vals[i] = val
	setTag(t.bucketTags(arr, b), s, tag)
}

// moveSlot relocates the entry in slot ss of src's bucket sb into free slot
// ds of dst's bucket db, tag and all: a displacement within the live
// arrays, or a migration out of a draining generation (a key's tag depends
// on its hash alone, so it holds in every generation). Caller holds both
// stripes; the table's size is unchanged.
func (t *Table[K, V]) moveSlot(dst *tArrays[K, V], db uint64, ds int, src *tArrays[K, V], sb uint64, ss int) {
	si := sb*t.assoc + uint64(ss)
	var key K
	if src.keys != nil {
		key = src.keys[si]
	}
	t.place(dst, db, ds, key, src.vals[si], tagIn(t.bucketTags(src, sb), ss))
	t.clearSlot(src, sb, si)
}

// clearSlot empties slot i of bucket b, releasing references for the GC;
// caller holds the bucket's stripe and accounts for size itself.
func (t *Table[K, V]) clearSlot(arr *tArrays[K, V], b, i uint64) {
	if arr.keys != nil {
		var zeroK K
		arr.keys[i] = zeroK
	}
	var zeroV V
	arr.vals[i] = zeroV
	setTag(t.bucketTags(arr, b), int(i-b*t.assoc), 0)
}

// freeSlot returns the first empty slot of the bucket whose tag words ws
// are; caller holds the bucket's stripe.
func (t *Table[K, V]) freeSlot(ws []uint32) (int, bool) {
	for j := range ws {
		if s := t.freeIn(atomic.LoadUint32(&ws[j]), j, len(ws)); s < 4 {
			return 4*j + s, true
		}
	}
	return 0, false
}

// Oldest returns the entry that older ranks first among the entries in the
// live slots of key's two candidate buckets, key itself excepted — the
// ones whose removal lets an Upsert of key that just got ErrFull land
// without a search. It is how a bounded cache picks an eviction victim
// where the room is needed instead of keeping an eviction order of its
// own; with the victim's value in hand, the cache can remove it through
// Update only if that value is still the one there. ok is false when
// those slots hold nothing else. older runs under the buckets' stripes: it
// must only compare, and not call into t.
func (t *Table[K, V]) Oldest(key K, older func(a, b V) bool) (victim K, val V, ok bool) {
	h := t.hash(key)
	tag := tagOf(h)
	var lockBuf [8]uint64
	st, locked := t.pin(h, lockBuf[:0])
	live := st.live
	b1, b2 := twoBuckets(h, live.buckets)
	var best uint64
	for _, b := range [2]uint64{b1, b2} {
		ws := t.bucketTags(live, b)
		for m := used(ws); m != 0; m &= m - 1 {
			s := bits.TrailingZeros32(m)
			i := b*t.assoc + uint64(s)
			if tagIn(ws, s) == tag && t.keyAt(live, i) == key {
				continue
			}
			if !ok || older(live.vals[i], live.vals[best]) {
				best, ok = i, true
			}
		}
	}
	if ok {
		victim, val = t.keyAt(live, best), live.vals[best]
	}
	t.locks.UnlockOrdered(locked)
	return victim, val, ok
}

// Range calls fn for every key/value pair until fn returns false. It
// first completes any in-flight migration, then walks the live buckets
// one stripe at a time: a concurrent writer blocks only while its
// bucket is being copied, never on the whole table. growMu is held for
// the walk, so generations cannot change mid-iteration (a put that
// needs to grow waits), but per-key operations proceed. The iteration
// is weakly consistent: entries written or removed while Range runs may
// or may not be observed. fn must not call methods of t.
func (t *Table[K, V]) Range(fn func(key K, val V) bool) {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	t.drainAllLocked()
	st := t.loadState()
	keys := make([]K, 0, t.assoc)
	vals := make([]V, 0, t.assoc)
	for b := uint64(0); b < st.live.buckets; b++ {
		l := t.locks.IndexFor(b)
		t.locks.Lock(l)
		keys, vals = t.copyBucket(st.live, b, keys[:0], vals[:0])
		t.locks.Unlock(l)
		for i := range keys {
			if !fn(keys[i], vals[i]) {
				return
			}
		}
	}
}

// copyBucket appends bucket b's occupied entries to keys/vals; caller
// holds the bucket's stripe.
func (t *Table[K, V]) copyBucket(arr *tArrays[K, V], b uint64, keys []K, vals []V) ([]K, []V) {
	for m := used(t.bucketTags(arr, b)); m != 0; m &= m - 1 {
		i := b*t.assoc + uint64(bits.TrailingZeros32(m))
		keys = append(keys, t.keyAt(arr, i))
		vals = append(vals, arr.vals[i])
	}
	return keys, vals
}
