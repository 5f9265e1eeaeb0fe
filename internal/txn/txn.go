// Package txn is cuckootxn, the read-modify-write subsystem layered over
// the cache: atomic single-key verbs (INCR/DECR/ADD/MAXUPDATE/CAS),
// multi-key transactions, and Doppel-style split counters for contended
// commutative updates.
//
// Every verb runs under per-key stripe locks of the paper's kind (§4.2's
// lock/version words, one level up). A transaction knows its whole key set
// before it runs, so it takes every stripe up front in ascending order —
// the §4.4 rule LockPair applies to a displacement's two buckets,
// generalized by LockOrdered to a commit's whole stripe set — runs its ops
// against the backing store and releases. It never aborts and never
// retries. The single-key verbs run the same op interpreter under their
// one stripe.
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

	"cuckoohash/internal/obs"
	"cuckoohash/internal/spinlock"
)

// KV is the backing store the transaction layer mediates access to. The
// contract: every mutation of a key routed through this interface happens
// while the Store holds that key's stripe (the Store guarantees this).
// Load and Update see only live values.
type KV interface {
	// Load returns key's value and its expiry (unix nanoseconds, 0 =
	// never).
	Load(key string) (val string, expireAt int64, ok bool)
	// Update makes the write ch.Decide returns for key's live value and
	// expiry, in one critical section of the store, and returns ch as the
	// last Decide left it. Decide may run more than once — the store
	// retries a write that had to make room first. The error is a write
	// the store could not make (a full store).
	Update(key string, ch Change) (Change, error)
}

// A Change is what a KV's Update makes of one key: Decide runs an op on
// the key's live value (a single-key verb) or returns a write already
// buffered (a transaction's commit, a split fold). It is a value — passed
// to Update and returned with the op's Result — so a verb crosses the KV
// interface without allocating.
type Change struct {
	op  Op
	run bool // run op on the value; otherwise c holds the write
	c   cell
	res Result
}

// Decide returns the write to make of a key whose value is val, expiring
// at expireAt (ok false when there is none): OpSet stores newVal to
// expire at exp, OpDel removes the key, OpGet leaves it. It only
// computes: a store calls it in its critical section.
func (ch *Change) Decide(val string, expireAt int64, ok bool) (write OpKind, newVal string, exp int64) {
	if ch.run {
		ch.c = cell{val: val, ok: ok, expireAt: expireAt}
		ch.res = applyToCell(&ch.op, &ch.c)
	}
	return ch.c.write, ch.c.val, ch.c.expireAt
}

// ErrNotInteger is returned when an arithmetic verb lands on a value that
// does not parse as a signed 64-bit integer.
var ErrNotInteger = errors.New("value is not an integer")

const (
	// stripes is the per-key lock table size (a power of two).
	stripes = 1024
	// splitShards is the number of padded delta shards hot keys split
	// across (a power of two).
	splitShards = 16
	// promoteAfter is how many contended stripe acquisitions a key
	// accumulates before it is promoted to split mode.
	promoteAfter = 8
)

// Store runs atomic verbs and transactions against a KV. All methods are
// safe for concurrent use.
type Store struct {
	kv    KV
	seed  maphash.Seed
	locks *spinlock.Stripe
	split *splitTable
	// promoteAfter is New's constant of the same name; the package's tests
	// lower it, or set it negative to disable splitting.
	promoteAfter int
	stats        storeStats
}

// New creates a transaction layer over kv.
func New(kv KV) *Store {
	return &Store{
		kv:           kv,
		seed:         maphash.MakeSeed(),
		locks:        spinlock.NewStripe(stripes),
		split:        newSplitTable(),
		promoteAfter: promoteAfter,
	}
}

// stripeFor maps a key to its lock stripe.
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
// cluster migration removal) must run through here, so it serializes with
// every verb and transaction that holds the key's stripe.
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

// WithLockBytes is WithLock for a key still in byte-slice form (the
// server's SET path aliases its read buffer): same stripe — maphash.Bytes
// agrees with maphash.String on the same bytes — and the same fold of
// pending split deltas; the hot set is probed with the free
// map[string(b)] lookup and hands back its own copy of a hot key, so no
// key is ever converted.
//
//cuckoo:hotpath the wire SET's critical section; converts nothing
func (s *Store) WithLockBytes(key []byte, rec *obs.Span, fn func()) {
	i := s.locks.IndexFor(maphash.Bytes(s.seed, key))
	t0 := rec.Begin()
	s.locks.Lock(i)
	rec.End(obs.StageLock, t0)
	if e, ok := s.split.lookupBytes(key); ok {
		s.foldLocked(e.key)
	}
	fn()
	s.locks.Unlock(i)
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
		if s.promoteAfter > 0 {
			s.noteContention(key, class)
		}
		s.locks.Lock(i)
	}
	rec.End(obs.StageLock, t0)
	s.reconcileIfHotLocked(key)
	op := Op{Kind: OpIncr, Key: key, Delta: n}
	if class == classMax {
		op.Kind = OpMax
	}
	_, err := s.applyOne(op, rec)
	s.locks.Unlock(i)
	return err
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
	op := Op{Kind: OpCAS, Key: key, Old: old, Val: newVal}
	var st Status
	var err error
	s.WithLock(key, rec, func() { st, err = s.applyOne(op, rec) })
	switch st {
	case StatusOK:
		return CASStored, err
	case StatusConflict:
		s.stats.casConflicts.Add(1)
		return CASConflict, nil
	}
	return CASMiss, nil
}

// applyOne runs op alone against its key's stored value — the op
// interpreter EXEC runs, on one cell — in the one Update that reads the
// value and writes the result, attributed to rec as StageProbe. Caller
// holds the key's stripe. A store error is returned unchanged so callers
// can evict and retry outside the stripe.
func (s *Store) applyOne(op Op, rec *obs.Span) (Status, error) {
	t0 := rec.Begin()
	ch, err := s.kv.Update(op.Key, Change{op: op, run: true})
	rec.End(obs.StageProbe, t0)
	if ch.res.Status == StatusErr {
		return ch.res.Status, ErrNotInteger // the one error INCR, MAXUPDATE and CAS can meet
	}
	return ch.res.Status, err
}

// ReconcileKeyBytes folds key's pending split deltas into the backing
// store if the key is hot; a cold key costs one atomic load. Read paths
// call this so a GET observes every acknowledged commutative update. key
// may alias the caller's read buffer (the server's GET path): the hot-set
// probe uses the compiler's free map[string(b)] lookup and a hot hit
// carries the set's own copy of the key, so nothing is converted in any
// state.
//
//cuckoo:hotpath GET-path split-counter fold gate; allocates nothing
func (s *Store) ReconcileKeyBytes(key []byte) {
	e, ok := s.split.lookupBytes(key)
	if !ok {
		return
	}
	i := s.stripeFor(e.key)
	s.locks.Lock(i)
	s.reconcileIfHotLocked(e.key)
	s.locks.Unlock(i)
}
