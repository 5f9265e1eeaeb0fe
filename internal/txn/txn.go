// Package txn is cuckootxn, the read-modify-write subsystem layered over
// the cache: atomic single-key verbs (INCR/DECR/ADD/MAXUPDATE/CAS),
// multi-key transactions with optimistic concurrency control, and
// Doppel-style split counters for contended commutative updates.
//
// The design reuses the paper's central trick one level up. §4.2 gives
// every bucket stripe a combined lock/version word so readers validate
// instead of locking (Eq. 1); cuckootxn keeps a second, per-key stripe
// table of the same words and turns them into an OCC read set: a
// transaction records the stripe versions it read, re-checks them under
// sorted stripe locks at commit, and retries on mismatch. The §4.4
// ascending-order rule that LockPair applies to a displacement's two
// buckets generalizes to LockOrdered over a commit's whole stripe set.
//
// For commutative verbs on skewed workloads, even perfect stripes melt:
// every INCR of one hot key serializes on one word. Doppel (Narula et
// al., OSDI 2014) splits such keys: during a split phase, commutative
// updates land in per-shard delta slots and the canonical value is
// reconciled on read or at phase ticks. Because a split op cannot
// observe the value, the commutative verbs reply OK without returning
// the new count — that contract is what makes the split legal.
//
// Lock hierarchy (outermost first): key stripe → backing-store internals
// (table bucket stripes) and split-shard mutexes.
// Split-shard mutexes and the backing store are never held while a key
// stripe is being acquired, and multi-stripe acquisition happens only
// through spinlock.LockOrdered, so the hierarchy is cycle-free.
package txn

import (
	"errors"
	"hash/maphash"
	"strconv"

	"cuckoohash/internal/obs"
	"cuckoohash/internal/spinlock"
)

// KV is the backing store the transaction layer mediates access to. The
// contract: every mutation of a key routed through this interface happens
// while the Store holds that key's stripe (the Store guarantees this),
// so stripe versions invalidate optimistic readers exactly when the
// underlying value may have changed. Load must return only live values.
type KV interface {
	Load(key string) (val string, ok bool)
	// Store writes val. When keepTTL is set the entry's current expiry is
	// preserved (counter updates must not clobber a TTL); otherwise
	// expireAt (unix nanoseconds, 0 = never) becomes the new expiry.
	Store(key, val string, expireAt int64, keepTTL bool) error
	Delete(key string) bool
}

// ErrNotInteger is returned when an arithmetic verb lands on a value that
// does not parse as a signed 64-bit integer.
var ErrNotInteger = errors.New("value is not an integer")

// Config tunes a Store. The zero value picks usable defaults.
type Config struct {
	// Stripes is the per-key version/lock table size (power of two,
	// default 1024). More stripes mean fewer false OCC conflicts.
	Stripes int
	// SplitShards is the number of padded delta shards hot keys split
	// across (power of two, default 16).
	SplitShards int
	// PromoteAfter is how many contended stripe acquisitions a key
	// accumulates before it is promoted to split mode. Negative disables
	// splitting entirely (every op takes the stripe). Default 8.
	PromoteAfter int
	// MaxRetries bounds OCC commit retries before a transaction falls
	// back to pessimistic stripe-ordered locking. Default 8.
	MaxRetries int
	// Epoch, when non-nil, maps a key to its backing shard's migration
	// epoch (a word the table bumps whenever an incremental resize starts
	// or finishes a generation). Transactions record it alongside each
	// versioned read and re-check it at commit: a read-set entry whose
	// shard migrated during the window aborts the attempt cleanly instead
	// of committing against a view that straddled two generations.
	Epoch func(key string) uint64
}

func (c *Config) setDefaults() {
	if c.Stripes == 0 {
		c.Stripes = 1024
	}
	if c.SplitShards == 0 {
		c.SplitShards = 16
	}
	if c.PromoteAfter == 0 {
		c.PromoteAfter = 8
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
}

// Store runs atomic verbs and transactions against a KV. All methods are
// safe for concurrent use.
type Store struct {
	kv    KV
	seed  maphash.Seed
	locks *spinlock.Stripe
	split *splitTable
	cfg   Config
	stats storeStats
}

// New creates a transaction layer over kv.
func New(kv KV, cfg Config) *Store {
	cfg.setDefaults()
	if cfg.Stripes&(cfg.Stripes-1) != 0 || cfg.Stripes <= 0 {
		panic("txn: Stripes must be a positive power of two")
	}
	s := &Store{
		kv:    kv,
		seed:  maphash.MakeSeed(),
		locks: spinlock.NewStripe(cfg.Stripes),
		cfg:   cfg,
	}
	s.split = newSplitTable(cfg.SplitShards)
	s.stats.init(cfg.MaxRetries)
	return s
}

// stripeFor maps a key to its version/lock stripe.
func (s *Store) stripeFor(key string) uint64 {
	return s.locks.IndexFor(maphash.String(s.seed, key))
}

// Every verb takes a *obs.Span and attributes its stripe wait
// (StageLock) and backing-store work (StageProbe) to it. A nil or
// unarmed span is free — Begin returns 0 without reading the clock and
// End on a zero start is a no-op — so untraced callers pass nil.

// WithLock runs fn while holding key's stripe, first folding any pending
// split deltas so fn observes the reconciled value. Every out-of-band
// mutation of the backing store (plain SET/DEL, TTL expiry, eviction,
// cluster migration removal) must run through here: the version bump on
// unlock is what invalidates concurrent optimistic read sets.
//
//cuckoo:hotpath every keyed verb runs its critical section through here
func (s *Store) WithLock(key string, rec *obs.Span, fn func()) {
	i := s.stripeFor(key)
	t0 := rec.Begin()
	s.locks.Lock(i)
	rec.End(obs.StageLock, t0)
	s.reconcileIfHotLocked(key)
	fn()
	s.locks.Unlock(i)
}

// NoHold is the hold number of a WithLockBytes critical section that began
// by folding the key's pending split deltas into the store: it wrote the
// key before fn ran, so it continues no earlier hold.
const NoHold = ^uint64(0)

// WithLockBytes is WithLock for a key still in byte-slice form (the
// server's SET path aliases its read buffer): same stripe — maphash.Bytes
// agrees with maphash.String on the same bytes — and the same fold of
// pending split deltas; the hot set is probed with the free
// map[string(b)] lookup and hands back its own copy of a hot key, so no
// key is ever converted.
//
// fn receives the hold's number: how many critical sections the stripe had
// completed when this one began. Two holds numbered n and n+1 had the
// stripe to themselves in between — no key mapped to it was written — so a
// caller sent away between them to make room (the server's evict-and-retry)
// may store in the second what it built, versioned, in the first.
//
//cuckoo:hotpath the wire SET's critical section; converts nothing
func (s *Store) WithLockBytes(key []byte, rec *obs.Span, fn func(hold uint64)) {
	i := s.locks.IndexFor(maphash.Bytes(s.seed, key))
	t0 := rec.Begin()
	s.locks.Lock(i)
	rec.End(obs.StageLock, t0)
	hold := s.locks.Version(i)
	if e, ok := s.split.lookupBytes(key); ok {
		s.foldLocked(e.key)
		hold = NoHold
	}
	fn(hold)
	s.locks.Unlock(i)
}

// Set writes key=val with the given absolute expiry under the key's
// stripe, reconciling pending deltas first (they serialize before the
// overwrite). It returns the backing store's error unchanged so callers
// can drive eviction-and-retry outside the stripe.
func (s *Store) Set(key, val string, expireAt int64, rec *obs.Span) error {
	var err error
	s.WithLock(key, rec, func() {
		t0 := rec.Begin()
		err = s.kv.Store(key, val, expireAt, false)
		rec.End(obs.StageProbe, t0)
	})
	return err
}

// Delete removes key under its stripe. Pending deltas are folded first,
// then discarded with the entry; deltas that arrive afterwards serialize
// after the delete and re-create the counter from zero.
func (s *Store) Delete(key string, rec *obs.Span) bool {
	var ok bool
	s.WithLock(key, rec, func() {
		t0 := rec.Begin()
		ok = s.kv.Delete(key)
		rec.End(obs.StageProbe, t0)
	})
	return ok
}

// Incr atomically adds delta to the signed 64-bit integer stored at key
// (a missing key counts from zero; int64 arithmetic wraps on overflow).
// hint spreads split-mode updates across delta shards — pass a stable
// per-worker value such as a connection id. The new count is not
// returned: during a split phase no single core knows it, which is
// exactly the property that lets hot counters scale (Doppel).
func (s *Store) Incr(key string, delta int64, hint uint64, rec *obs.Span) error {
	return s.commute(key, classAdd, delta, hint, rec)
}

// MaxUpdate atomically raises the integer at key to n if n is larger
// (a missing key is treated as having no value, so n is stored). Like
// Incr it is commutative and split-eligible, and returns no value.
func (s *Store) MaxUpdate(key string, n int64, hint uint64, rec *obs.Span) error {
	return s.commute(key, classMax, n, hint, rec)
}

// commute is the one body of the commutative verbs. A key split for this
// class takes the fast path — one padded slot update, no stripe, nothing
// recorded in rec; everything else takes the stripe, charging contended
// acquisitions toward promotion.
//
//cuckoo:hotpath a split-mode INCR/MAXUPDATE is one slot update; the stripe path's value re-encode is its audited cost
func (s *Store) commute(key string, class uint8, n int64, hint uint64, rec *obs.Span) error {
	if e, ok := s.split.lookup(key); ok && e.class == class {
		if s.split.record(e, n, hint) {
			return nil
		}
		// Demoted between the lookup and the slot write: fall through to
		// the stripe path like any cold key.
	}
	i := s.stripeFor(key)
	t0 := rec.Begin()
	if !s.locks.TryLock(i) {
		if s.cfg.PromoteAfter > 0 {
			s.noteContention(key, class)
		}
		s.locks.Lock(i)
	}
	rec.End(obs.StageLock, t0)
	s.reconcileIfHotLocked(key)
	t1 := rec.Begin()
	err := s.applyLocked(key, class, n)
	rec.End(obs.StageProbe, t1)
	s.locks.Unlock(i)
	return err
}

// applyLocked performs the read-modify-write of a commutative verb: add
// n (classAdd) or raise to n (classMax). Caller holds key's stripe.
func (s *Store) applyLocked(key string, class uint8, n int64) error {
	if cur, ok := s.kv.Load(key); ok {
		v, err := strconv.ParseInt(cur, 10, 64)
		if err != nil {
			return ErrNotInteger
		}
		if class == classAdd {
			n += v
		} else if v >= n {
			return nil
		}
	}
	//lint:allow cuckoovet:allocfree the re-encoded value string is the write; split mode batches these to one per fold
	return s.kv.Store(key, strconv.FormatInt(n, 10), 0, true)
}

// CASResult is the outcome of a CAS.
type CASResult int

const (
	// CASStored: the value matched old and was replaced.
	CASStored CASResult = iota
	// CASMiss: the key does not exist.
	CASMiss
	// CASConflict: the current value differs from old.
	CASConflict
)

// CAS replaces key's value with newVal only if it currently equals old.
// CAS observes the value, so it is never split; it always takes the
// stripe and reconciles pending deltas first.
func (s *Store) CAS(key, old, newVal string, rec *obs.Span) (CASResult, error) {
	res, err := CASMiss, error(nil)
	s.WithLock(key, rec, func() {
		t0 := rec.Begin()
		cur, ok := s.kv.Load(key)
		switch {
		case !ok:
			res = CASMiss
		case cur != old:
			res = CASConflict
			s.stats.casConflicts.Add(1)
		default:
			res = CASStored
			err = s.kv.Store(key, newVal, 0, true)
		}
		rec.End(obs.StageProbe, t0)
	})
	return res, err
}

// ReconcileKey folds key's pending split deltas into the backing store
// if the key is hot; a cold key costs one atomic load. Read paths call
// this so a GET observes every acknowledged commutative update.
func (s *Store) ReconcileKey(key string) {
	if _, ok := s.split.lookup(key); !ok {
		return
	}
	i := s.stripeFor(key)
	s.locks.Lock(i)
	s.reconcileIfHotLocked(key)
	s.locks.Unlock(i)
}

// ReconcileKeyBytes is ReconcileKey for a key still in byte-slice form
// (the server's GET path aliases its read buffer). The hot-set probe
// uses the compiler's free map[string(b)] lookup and a hot hit carries
// the set's own copy of the key, so nothing is converted in any state.
//
//cuckoo:hotpath GET-path split-counter fold gate; allocates nothing
func (s *Store) ReconcileKeyBytes(key []byte) {
	if e, ok := s.split.lookupBytes(key); ok {
		s.ReconcileKey(e.key)
	}
}
