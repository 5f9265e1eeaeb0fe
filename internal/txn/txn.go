// Package txn is cuckootxn, the read-modify-write subsystem layered over
// the cache: atomic single-key verbs (INCR/DECR/ADD/MAXUPDATE/CAS), the op
// interpreter multi-key transactions run, and Doppel-style split counters
// for contended commutative updates.
//
// The package holds no lock of a key's. A single-key verb is one Update of
// the backing store (KV): the store runs the verb's Change in the critical
// section that writes the key — in cuckood, one pin of the key's bucket
// stripes — so its check and its write are one. A transaction's commit is
// the store's too: the server takes every key's pin in one ordered
// acquisition and runs the interpreter (Tx) on the keys' cells inside it.
//
// For commutative verbs on skewed workloads, even perfect stripes melt:
// every INCR of one hot key serializes on one word. Doppel (Narula et
// al., OSDI 2014) splits such keys: during a split phase, commutative
// updates land in per-shard delta slots and the canonical value is
// reconciled on read or at phase ticks. Because a split op cannot
// observe the value, the commutative verbs reply OK without returning
// the new count — that contract is what makes the split legal. A key is
// promoted after its counter verbs' critical sections keep having to wait
// for it (Change.Waited).
//
// Lock hierarchy (outermost first): the store's key pins (table bucket
// stripes, several tables' in one fixed order for a transaction), then the
// split-shard spinlocks, which a pin holder takes to drain a key's deltas
// (Change.Decide, Tx.Load, Discard). A split-shard lock is never held while
// a pin is being taken, so the hierarchy is cycle-free.
package txn

import (
	"errors"

	"cuckoohash/internal/obs"
)

// KV is the backing store the transaction layer writes through.
type KV interface {
	// Update makes the write ch.Decide returns for key's live value and
	// expiry, in one critical section of the store, and returns ch as the
	// last Decide left it. Decide may run more than once — the store
	// retries a write that had to make room first — and keeps what an
	// earlier run drained. The store calls Waited on ch when that critical
	// section had to wait for the key. The error is a write the store could
	// not make (a full store).
	Update(key string, ch Change) (Change, error)
}

// A Change is what a KV's Update makes of one key: Decide folds the key's
// pending split deltas into its live value and runs an op on it (a
// single-key verb), or only folds them (a phase tick, a read's reconcile).
// It is a value — passed to Update and returned with the op's Result — so
// a verb crosses the KV interface without allocating.
type Change struct {
	s      *Store
	op     Op
	run    bool    // run op on the folded value; otherwise only fold
	pend   pending // the deltas drained so far, kept when Decide runs again
	res    Result
	waited bool
}

// Decide returns the write to make of a key whose value is val, expiring
// at expireAt (ok false when there is none): OpSet stores newVal to
// expire at exp, OpDel removes the key, OpGet leaves it. It runs in the
// store's critical section for the key: it drains the key's split deltas
// and computes, nothing else.
func (ch *Change) Decide(val string, expireAt int64, ok bool) (write OpKind, newVal string, exp int64) {
	c := cell{val: val, ok: ok, expireAt: expireAt}
	ch.s.drain(ch.op.Key, &ch.pend, !ch.run)
	ch.pend.foldInto(&c)
	if ch.run {
		ch.res = applyToCell(&ch.op, &c)
	}
	return c.write, c.val, c.expireAt
}

// Waited records that the critical section the change ran in had to wait
// for its key: the contention that promotes a counter to split mode.
func (ch *Change) Waited() { ch.waited = true }

// ErrNotInteger is returned when an arithmetic verb lands on a value that
// does not parse as a signed 64-bit integer.
var ErrNotInteger = errors.New("value is not an integer")

const (
	// splitShards is the number of padded delta shards hot keys split
	// across (a power of two).
	splitShards = 16
	// promoteAfter is how many contended critical sections a key's counter
	// verbs accumulate before it is promoted to split mode.
	promoteAfter = 8
)

// Store runs atomic verbs against a KV and holds the split counters. All
// methods are safe for concurrent use.
type Store struct {
	kv    KV
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
		split:        newSplitTable(),
		promoteAfter: promoteAfter,
	}
}

// Every verb takes a *obs.Span and attributes its backing-store work,
// critical section included, to it as StageProbe. A nil or unarmed span
// is free — Begin returns 0 without reading the clock and End on a zero
// start is a no-op — so untraced callers pass nil.

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
// class takes the fast path — one padded slot update, no pin, nothing
// recorded in rec; everything else is one Update of the key, whose having
// had to wait for the key counts toward promotion.
//
//cuckoo:hotpath a split-mode INCR/MAXUPDATE is one slot update; the pinned path's value re-encode is its audited cost
func (s *Store) commute(key string, class uint8, n int64, hint uint64, rec *obs.Span) error {
	if e, ok := s.split.lookup(key); ok && e.class == class {
		if s.split.record(e, n, hint) {
			return nil
		}
		// Demoted between the lookup and the slot write: fall through to
		// the pinned path like any cold key.
	}
	op := Op{Kind: OpIncr, Key: key, Delta: n}
	if class == classMax {
		op.Kind = OpMax
	}
	ch, err := s.applyOne(op, rec)
	if ch.waited && s.promoteAfter > 0 {
		s.noteContention(key, class)
	}
	if ch.res.Status == StatusErr {
		return ErrNotInteger
	}
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
// CAS observes the value, so it is never split; its decision folds the
// key's pending deltas before it compares.
func (s *Store) CAS(key, old, newVal string, rec *obs.Span) (CASResult, error) {
	ch, err := s.applyOne(Op{Kind: OpCAS, Key: key, Old: old, Val: newVal}, rec)
	switch ch.res.Status {
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
// value and writes the result, attributed to rec as StageProbe. A store
// error is returned unchanged.
func (s *Store) applyOne(op Op, rec *obs.Span) (Change, error) {
	t0 := rec.Begin()
	ch, err := s.kv.Update(op.Key, Change{s: s, op: op, run: true})
	rec.End(obs.StageProbe, t0)
	return ch, err
}

// ReconcileKeyBytes folds key's pending split deltas into the backing
// store if the key is hot, in one Update; a cold key costs one atomic
// load. Read paths call this so a GET observes every acknowledged
// commutative update. key may alias the caller's read buffer (the server's
// GET path): the hot-set probe uses the compiler's free map[string(b)]
// lookup and a hot hit carries the set's own copy of the key, so nothing
// is converted in any state.
//
//cuckoo:hotpath GET-path split-counter fold gate; allocates nothing
func (s *Store) ReconcileKeyBytes(key []byte) {
	if e, ok := s.split.lookupBytes(key); ok {
		s.fold(e.key)
	}
}
