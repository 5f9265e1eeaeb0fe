package core

import (
	"errors"
	"math/bits"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/txarena"
)

// TxTable is cuckoo+ under coarse-grained locking with (emulated) hardware
// lock elision (§5): the table's state lives in an htm.Region arena, every
// operation's critical section runs as one transaction subscribed to the
// region's fallback lock, and the cuckoo-path search runs outside the
// transaction exactly as it runs outside the lock in Algorithm 2.
//
// Thanks to the algorithmic optimizations the transactional footprint of an
// insert is at most L_BFS displacement writes plus the candidate pair —
// about a dozen cache lines — so transactions rarely conflict and almost
// never overflow capacity; that is the entire point of §5.
//
// In LockEarly mode it is instead the unoptimized table under elision
// (§2.3): all of Algorithm 1 — duplicate check, search and execution — runs
// in one transaction, whose read set then holds every bucket the search
// visited. Long transactions conflict with everything and overflow the
// emulated capacity, so the fallback lock serializes the writers: lock
// elision alone cannot rescue an unoptimized data structure.
//
// The search, its scratch and the probe counters are Table's (finder); the
// bucket records, their transactional slot operations, the elided lookup
// and delete and the size counter are the arena's (txarena.Buckets). What
// is written here is what §5 adds: the insert critical section as one
// transaction.
type TxTable struct {
	finder
	txarena.Buckets
}

// NewTxTable creates a transactional cuckoo+ table with the given elision
// policy. Options.Stripes is ignored: concurrency control is the region's
// single elided lock. Options.Locking only tells LockEarly, which moves the
// search into the transaction, from the other two.
func NewTxTable(opts Options, policy htm.Policy, cfg htm.Config) (*TxTable, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &TxTable{}
	t.finder.init(opts)
	if err := t.Buckets.Init(opts.Buckets, opts.Assoc, opts.ValueWords, policy, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNewTxTable panics on configuration errors.
func MustNewTxTable(opts Options, policy htm.Policy, cfg htm.Config) *TxTable {
	t, err := NewTxTable(opts, policy, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Stats returns the table's operational counters.
func (t *TxTable) Stats() Stats { return Stats{ProbeStats: t.probe.Snapshot()} }

// The bucketReader the path search reads through outside a transaction:
// direct, untracked loads of the arena.
func (t *TxTable) numBuckets() uint64             { return t.NumBuckets() }
func (t *TxTable) prefetch(b uint64)              { t.Prefetch(b) }
func (t *TxTable) loadOcc(b uint64) uint32        { return t.Occ(b) }
func (t *TxTable) slotKey(b uint64, s int) uint64 { return t.Key(b, s) }
func (t *TxTable) slotKeys(b uint64, dst []uint64) {
	for s := range dst {
		dst[s] = t.Key(b, s)
	}
}

func (t *TxTable) twoBuckets(key uint64) (b1, b2 uint64) {
	return hashfn.TwoBuckets(t.hash(key), t.NumBuckets())
}

// Lookup returns the first value word for key.
func (t *TxTable) Lookup(key uint64) (uint64, bool) {
	var v [1]uint64
	if t.LookupValue(key, v[:]) {
		return v[0], true
	}
	return 0, false
}

// LookupValue reads key's value inside one (read-only) elided transaction.
func (t *TxTable) LookupValue(key uint64, dst []uint64) bool {
	b1, b2 := t.twoBuckets(key)
	return t.Find(b1, b2, key, dst)
}

// Insert adds key with a single-word value; ErrExists if present, ErrFull
// if no path to an empty slot exists.
func (t *TxTable) Insert(key, val uint64) error {
	return t.write(key, []uint64{val}, modeInsert)
}

// Upsert inserts or overwrites.
func (t *TxTable) Upsert(key, val uint64) error {
	return t.write(key, []uint64{val}, modeUpsert)
}

// Delete removes key, reporting whether it was present.
func (t *TxTable) Delete(key uint64) bool {
	b1, b2 := t.twoBuckets(key)
	return t.Remove(b1, b2, key)
}

var (
	errPathInvalid = errors.New("cuckoo: path invalidated")
	errNoSpace     = errors.New("cuckoo: no space in pair")
)

// write is Table.write with each locked step replaced by one transaction:
// the same peek, the same search through the same reader, the same order
// of attempts — so the two tables make the same moves on the same input.
func (t *TxTable) write(key uint64, val []uint64, mode writeMode) error {
	if uint64(len(val)) > t.vw {
		panic("cuckoo: value longer than ValueWords")
	}
	b1, b2 := t.twoBuckets(key)
	sc := t.scratch.Get().(*searchScratch)
	defer t.scratch.Put(sc)
	if t.opts.Locking == LockEarly {
		return t.writeEarly(sc, b1, b2, key, val, mode)
	}
	full := uint32(1)<<t.assoc - 1
	for {
		// Peek (untracked) whether a candidate bucket has room; an
		// overwrite needs none, so it looks for its key first either way.
		if mode != modeInsert || t.Occ(b1)&full != full || t.Occ(b2)&full != full {
			if err := t.attempt(b1, b2, key, val, mode, nil); err != errNoSpace {
				return err
			}
		}
		// Phase 1 (outside the transaction, §4.3.1): find a cuckoo path.
		t.probe.Searched(b1)
		path, st := t.search(t, sc, b1, b2)
		if st == searchStale {
			t.probe.Restarted(b1)
			continue
		}
		if st == searchFull {
			// Confirm fullness transactionally before reporting: the key
			// may already exist, or a slot may have been freed.
			err := t.attempt(b1, b2, key, val, mode, nil)
			if err == errNoSpace {
				return ErrFull
			}
			return err
		}
		t.probe.ObservePath(b1, uint64(len(path)-1))
		// Phase 2: one transaction validates the path, performs the
		// displacements, re-checks for duplicates and inserts.
		err := t.attempt(b1, b2, key, val, mode, path)
		if err != errPathInvalid && err != errNoSpace {
			return err
		}
		// Stale path or the free slot vanished: restart (Eq. 1).
		t.probe.Restarted(b1)
	}
}

// attempt runs txAttempt as one transaction.
func (t *TxTable) attempt(b1, b2, key uint64, val []uint64, mode writeMode, path []pathEntry) error {
	moved := 0
	_, err := t.Do(b1, 1, func(tx *htm.Txn) error {
		var err error
		moved, err = t.txAttempt(tx, b1, b2, key, val, mode, path)
		return err
	})
	t.countMoves(path, moved)
	return err
}

// countMoves counts the first moved displacements of path, hole-backward,
// once their transaction committed: an aborted one moved nothing, and a
// counter bump inside it would survive the abort.
func (t *TxTable) countMoves(path []pathEntry, moved int) {
	for i := len(path) - 2; i >= len(path)-1-moved; i-- {
		t.probe.Displaced(path[i].bucket)
	}
}

// writeEarly is write in LockEarly mode, Algorithm 1: the duplicate check,
// the direct placement, the search and the execution of its path run in
// one transaction, the search reading through it (sc.txs). Only a DFS
// walk that crossed itself (see searchDFS) ends the transaction before the
// insert is done: the moves made so far commit, and the insert starts over
// in a new transaction, as Table's starts over under its lock.
func (t *TxTable) writeEarly(sc *searchScratch, b1, b2, key uint64, val []uint64, mode writeMode) error {
	e := &sc.txs
	for {
		_, err := t.Do(b1, 1, func(tx *htm.Txn) error {
			*e = txSearch{t: t, tx: tx}
			if _, err := t.txAttempt(tx, b1, b2, key, val, mode, nil); err != errNoSpace {
				return err
			}
			e.searched = true
			path, st := t.search(e, sc, b1, b2)
			if st != searchFound {
				// Nothing else writes while the transaction runs, so the
				// search cannot go stale: no path means full.
				return ErrFull
			}
			e.path = path
			var err error
			e.moved, err = t.txAttempt(tx, b1, b2, key, val, mode, path)
			return err
		})
		// What the committed run did, counted now: a counter bump inside
		// the transaction would survive an abort.
		if e.searched {
			t.probe.Searched(b1)
		}
		if e.path != nil {
			t.probe.ObservePath(b1, uint64(len(e.path)-1))
			t.countMoves(e.path, e.moved)
		}
		if err != errPathInvalid {
			return err
		}
		t.probe.Restarted(b1)
	}
}

// txAttempt is the transactional critical section of an insert: duplicate
// check, path validation + execution, slot claim. It returns nil for a new
// entry and txarena.ErrReplaced for an overwrite in place, and reports how
// many displacements of path it made: an invalid path stops at the first
// entry that no longer holds, and the moves before it stand.
func (t *TxTable) txAttempt(tx *htm.Txn, b1, b2 uint64, key uint64, val []uint64, mode writeMode, path []pathEntry) (moved int, err error) {
	// Duplicate check in both candidate buckets.
	for _, b := range [2]uint64{b1, b2} {
		if s := t.TxFind(tx, b, key); s >= 0 {
			if mode == modeInsert {
				return 0, ErrExists
			}
			t.TxSetValue(tx, b, s, val)
			return 0, txarena.ErrReplaced
		}
	}
	if mode == modeUpdate {
		return 0, errAbsent
	}

	if len(path) == 0 {
		// Direct insert into the emptier candidate bucket, b1 on a tie,
		// as Table places: the bitmaps are the ones TxFind just read.
		b, occ := b1, t.TxOcc(tx, b1)
		if occ2 := t.TxOcc(tx, b2); bits.OnesCount32(occ2) < bits.OnesCount32(occ) {
			b, occ = b2, occ2
		}
		if s, ok := txarena.FreeSlot(occ, int(t.assoc)); ok {
			t.TxPlace(tx, b, s, key, val)
			return 0, nil
		}
		return 0, errNoSpace
	}

	// Validate and execute the displacements hole-backward.
	for i := len(path) - 2; i >= 0; i-- {
		src, dst := path[i], path[i+1]
		if t.TxOcc(tx, src.bucket)&(1<<uint(src.slot)) == 0 ||
			t.TxKey(tx, src.bucket, src.slot) != src.key ||
			t.TxOcc(tx, dst.bucket)&(1<<uint(dst.slot)) != 0 {
			return moved, errPathInvalid
		}
		t.TxMove(tx, src.bucket, src.slot, dst.bucket, dst.slot)
		moved++
	}
	head := path[0]
	if t.TxOcc(tx, head.bucket)&(1<<uint(head.slot)) != 0 {
		return moved, errPathInvalid
	}
	t.TxPlace(tx, head.bucket, head.slot, key, val)
	return moved, nil
}

// txSearch is a search inside a transaction (LockEarly mode): the
// bucketReader it reads through, whose every read goes through tx so that
// every bucket the search visits joins the transaction's read set, and
// what the transaction did, for writeEarly to count once it commits. It
// prefetches nothing: where prefetch.Line is an early load, that load
// would be a read the transaction does not track.
type txSearch struct {
	t        *TxTable
	tx       *htm.Txn
	searched bool
	path     []pathEntry // the path found, if any
	moved    int         // the displacements of path made
}

func (r *txSearch) numBuckets() uint64             { return r.t.NumBuckets() }
func (r *txSearch) prefetch(uint64)                {} // see below
func (r *txSearch) loadOcc(b uint64) uint32        { return r.t.TxOcc(r.tx, b) }
func (r *txSearch) slotKey(b uint64, s int) uint64 { return r.t.TxKey(r.tx, b, s) }
func (r *txSearch) slotKeys(b uint64, dst []uint64) {
	for s := range dst {
		dst[s] = r.t.TxKey(r.tx, b, s)
	}
}
