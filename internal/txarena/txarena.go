// Package txarena holds what the four HTM-instrumented tables share
// between the htm emulation and their own slot layouts: a bounds-checked
// region run under one elision policy with the entry count kept beside it
// (Elided), and on top of that the cuckoo bucket-record layout with its
// transactional slot operations (Buckets). It sits outside package htm on
// purpose: htm is transaction machinery, where blockcheck's walk of a
// transaction body stops, while the transaction bodies here are table
// code and are checked like any other.
package txarena

import (
	"errors"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/prefetch"
)

// MaxWords bounds an arena: the tables address it with uint32 words, and
// 2^31 of them (16 GiB) is already more than any configuration the
// evaluation runs.
const MaxWords = 1 << 31

// ErrTooLarge reports an arena whose word addresses would not fit; without
// the check they wrap silently and distinct slots alias.
var ErrTooLarge = errors.New("txarena: transactional arena exceeds 2^31 words")

// Elided is a transactional region run under one elision policy. The
// table's entry count lives beside the region rather than in it: a size
// word inside the arena would put one shared line in every writer's write
// set (principle P1).
type Elided struct {
	policy htm.Policy
	region *htm.Region
	size   metrics.ShardedCounter
}

// Init sizes the region. It is the one place an arena is sized, so it is
// the one place the address bound is checked.
func (e *Elided) Init(words uint64, policy htm.Policy, cfg htm.Config) error {
	if words > MaxWords {
		return ErrTooLarge
	}
	e.policy = policy
	e.region = htm.NewRegion(int(words), cfg)
	e.size = metrics.NewShardedCounter(64)
	return nil
}

// Region exposes the transactional region (abort-rate statistics, §2.3's
// Intel-PCM-style reporting).
func (e *Elided) Region() *htm.Region { return e.region }

// Len returns the entry count.
func (e *Elided) Len() uint64 { return uint64(e.size.Total()) }

// A body passed to Do or Read may run several times: an aborted attempt is
// rolled back and retried, and an attempt that ran to completion on a stale
// read set fails only at commit. Only the error its last execution returns
// is the operation's result, so that is what Do and Read go by; a value a
// body hands out through a captured variable follows the same rule if the
// body assigns it on the path that returns nil.
var (
	// ErrReplaced is what a Do body returns after overwriting an entry in
	// place: the transaction commits, the entry count does not move, and Do
	// reports success.
	ErrReplaced = errors.New("txarena: entry replaced in place")
	// ErrAbsent is what a body returns when the key it was to read or
	// delete is not there. The transaction still commits, so the miss is as
	// validated as a hit.
	ErrAbsent = errors.New("txarena: key not present")
)

// Do runs one mutating operation under the elided lock. When body returns
// nil it has added delta entries (removed, if negative): Do applies that to
// the size counter, on the shard picked by shard, and reports true.
func (e *Elided) Do(shard uint64, delta int64, body func(tx *htm.Txn) error) (bool, error) {
	err := e.region.RunElided(e.policy, body)
	if err == nil {
		e.size.Add(shard, delta)
		return true, nil
	}
	if err == ErrReplaced {
		err = nil
	}
	return false, err
}

// Read runs one read-only operation under the elided lock and reports
// whether body found what it was looking for (returned nil).
func (e *Elided) Read(body func(tx *htm.Txn) error) bool {
	return e.region.RunElided(e.policy, body) == nil
}

// wordsPerLine is the conflict-detection granularity of package htm, in
// 8-byte words.
const wordsPerLine = 8

// Buckets is the arena of a B-way set-associative cuckoo table: one record
// per bucket, padded to a whole number of 64-byte lines so that buckets
// never share a conflict-detection line.
//
//	word 0:                occupancy bitmap
//	words 1..assoc:        keys
//	words 1+assoc..:       values (assoc*valueWords words)
//	padding to line multiple
//
// core.TxTable embeds it, with its path search outside the transaction
// (§5) or, in LockEarly mode, all of Algorithm 1 inside it (§2.3).
type Buckets struct {
	Elided
	nb, assoc, vw, stride uint64
}

// Init lays out buckets records of assoc slots with valueWords-word values.
func (a *Buckets) Init(buckets uint64, assoc, valueWords int, policy htm.Policy, cfg htm.Config) error {
	a.nb, a.assoc, a.vw = buckets, uint64(assoc), uint64(valueWords)
	if a.vw > MaxWords {
		return ErrTooLarge
	}
	a.stride = (1 + a.assoc + a.assoc*a.vw + wordsPerLine - 1) / wordsPerLine * wordsPerLine
	if a.stride > MaxWords/buckets { // buckets*stride, without the overflow
		return ErrTooLarge
	}
	return a.Elided.Init(buckets*a.stride, policy, cfg)
}

// NumBuckets returns the bucket count.
func (a *Buckets) NumBuckets() uint64 { return a.nb }

// Cap returns the slot count.
func (a *Buckets) Cap() uint64 { return a.nb * a.assoc }

// LoadFactor returns Len/Cap.
func (a *Buckets) LoadFactor() float64 { return float64(a.Len()) / float64(a.Cap()) }

func (a *Buckets) occAddr(b uint64) uint32 { return uint32(b * a.stride) }

func (a *Buckets) keyAddr(b uint64, s int) uint32 {
	return uint32(b*a.stride + 1 + uint64(s))
}

func (a *Buckets) valAddr(b uint64, s int, w uint64) uint32 {
	return uint32(b*a.stride + 1 + a.assoc + uint64(s)*a.vw + w)
}

// Occ and Key read a bucket outside any transaction, untracked: what the
// unlocked path search of §4.3.1 sees. A stale observation only yields a
// path that fails validation inside the transaction.

// Occ returns bucket b's occupancy bitmap.
func (a *Buckets) Occ(b uint64) uint32 { return uint32(a.region.LoadDirect(a.occAddr(b))) }

// Key returns the key word of slot (b, s), meaningful only if occupied.
func (a *Buckets) Key(b uint64, s int) uint64 { return a.region.LoadDirect(a.keyAddr(b, s)) }

// Prefetch asks for the line of bucket b's occupancy bitmap and first keys.
// It reads nothing, so it joins no transaction's read set.
func (a *Buckets) Prefetch(b uint64) { prefetch.Line(&a.region.Words()[a.occAddr(b)]) }

// The Tx methods below are the transactional slot operations; each takes
// the transaction it runs in.

// TxOcc returns bucket b's occupancy bitmap.
func (a *Buckets) TxOcc(tx *htm.Txn, b uint64) uint32 { return uint32(tx.Load(a.occAddr(b))) }

// TxKey returns the key word of slot (b, s).
func (a *Buckets) TxKey(tx *htm.Txn, b uint64, s int) uint64 { return tx.Load(a.keyAddr(b, s)) }

// TxFind returns the slot of bucket b holding key, or -1.
func (a *Buckets) TxFind(tx *htm.Txn, b, key uint64) int {
	occ := a.TxOcc(tx, b)
	for s := 0; occ != 0; s, occ = s+1, occ>>1 {
		if occ&1 != 0 && a.TxKey(tx, b, s) == key {
			return s
		}
	}
	return -1
}

// FreeSlot returns the index of a clear bit in occ below assoc.
func FreeSlot(occ uint32, assoc int) (int, bool) {
	for s := 0; s < assoc; s++ {
		if occ&(1<<uint(s)) == 0 {
			return s, true
		}
	}
	return 0, false
}

// TxSetValue overwrites the value of slot (b, s), zero-extending a short
// val to the table's value width.
func (a *Buckets) TxSetValue(tx *htm.Txn, b uint64, s int, val []uint64) {
	for w := uint64(0); w < a.vw; w++ {
		var v uint64
		if w < uint64(len(val)) {
			v = val[w]
		}
		tx.Store(a.valAddr(b, s, w), v)
	}
}

// TxPlace writes key and val into the free slot (b, s) and marks it
// occupied.
func (a *Buckets) TxPlace(tx *htm.Txn, b uint64, s int, key uint64, val []uint64) {
	tx.Store(a.keyAddr(b, s), key)
	a.TxSetValue(tx, b, s, val)
	tx.Store(a.occAddr(b), tx.Load(a.occAddr(b))|1<<uint(s))
}

// txClear marks slot (b, s) free.
func (a *Buckets) txClear(tx *htm.Txn, b uint64, s int) {
	tx.Store(a.occAddr(b), tx.Load(a.occAddr(b))&^(1<<uint(s)))
}

// TxMove displaces the entry in slot (sb, ss) into the free slot (db, ds).
// The destination is marked before the source is cleared and each bitmap
// is re-read at its update, so a move within one bucket is correct too.
func (a *Buckets) TxMove(tx *htm.Txn, sb uint64, ss int, db uint64, ds int) {
	tx.Store(a.keyAddr(db, ds), tx.Load(a.keyAddr(sb, ss)))
	for w := uint64(0); w < a.vw; w++ {
		tx.Store(a.valAddr(db, ds, w), tx.Load(a.valAddr(sb, ss, w)))
	}
	tx.Store(a.occAddr(db), tx.Load(a.occAddr(db))|1<<uint(ds))
	a.txClear(tx, sb, ss)
}

// Find reads key's value from candidate bucket b1 or b2 in one read-only
// elided transaction, copying min(valueWords, len(dst)) words into dst.
func (a *Buckets) Find(b1, b2, key uint64, dst []uint64) bool {
	return a.Read(func(tx *htm.Txn) error {
		for _, b := range [2]uint64{b1, b2} {
			if s := a.TxFind(tx, b, key); s >= 0 {
				for w := 0; w < len(dst) && uint64(w) < a.vw; w++ {
					dst[w] = tx.Load(a.valAddr(b, s, uint64(w)))
				}
				return nil
			}
		}
		return ErrAbsent
	})
}

// Remove deletes key from candidate bucket b1 or b2 in one elided
// transaction, reporting whether it was present.
func (a *Buckets) Remove(b1, b2, key uint64) bool {
	removed, _ := a.Do(b1, -1, func(tx *htm.Txn) error {
		for _, b := range [2]uint64{b1, b2} {
			if s := a.TxFind(tx, b, key); s >= 0 {
				a.txClear(tx, b, s)
				return nil
			}
		}
		return ErrAbsent
	})
	return removed
}
