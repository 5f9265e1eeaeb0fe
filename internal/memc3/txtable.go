package memc3

import (
	"sync"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/txarena"
)

// TxTable is the MemC3 cuckoo table under a coarse lock with (emulated) TSX
// lock elision, the configuration measured in Figure 2 and the "+TSX-glibc"
// / "+TSX*" columns of the upper Figure 5b chart.
//
// Crucially — and this is what dooms it — the whole of Algorithm 1 runs
// inside one transaction: duplicate check, the DFS path search (which at
// high occupancy reads hundreds of buckets into the transaction's read set)
// and every displacement write. Long transactions conflict with everything
// and overflow the emulated L1 capacity, so the abort rate explodes and the
// fallback lock serializes the writers, reproducing §2.3's observation that
// lock elision alone cannot rescue an unoptimized data structure.
//
// The bucket records and their slot operations are txarena.Buckets, the
// same arena core.TxTable runs on; the search is Table's (walk).
type TxTable struct {
	walk
	txarena.Buckets
	searches sync.Pool // *txSearch
}

// NewTxTable creates the transactional MemC3 table.
func NewTxTable(o Options, policy htm.Policy, cfg htm.Config) (*TxTable, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	t := &TxTable{walk: newWalk(o)}
	t.searches.New = func() any { return &txSearch{t: t, sc: t.newScratch()} }
	if err := t.Buckets.Init(o.Buckets, o.Assoc, o.ValueWords, policy, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNewTxTable panics on configuration errors.
func MustNewTxTable(o Options, policy htm.Policy, cfg htm.Config) *TxTable {
	t, err := NewTxTable(o, policy, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// txSearch is what one insert's in-transaction path search needs, taken
// from a pool before the transaction begins: an allocation inside it cannot
// be rolled back on abort, and real HTM aborts on the allocator's page
// faults. It is the search's bucketReader: every read is tracked by tx.
type txSearch struct {
	t  *TxTable
	tx *htm.Txn
	sc *dfsScratch
}

func (r *txSearch) loadOcc(b uint64) uint32        { return r.t.TxOcc(r.tx, b) }
func (r *txSearch) slotKey(b uint64, s int) uint64 { return r.t.TxKey(r.tx, b, s) }

// Lookup reads key in one read-only transaction.
func (t *TxTable) Lookup(key uint64) (uint64, bool) {
	b1, b2 := hashfn.TwoBuckets(t.hash(key), t.nb)
	var v [1]uint64
	found := t.Find(b1, b2, key, v[:])
	return v[0], found
}

// Insert runs the entire Algorithm 1 in a single elided transaction.
func (t *TxTable) Insert(key, val uint64) error {
	h := t.hash(key)
	b1, b2 := hashfn.TwoBuckets(h, t.nb)
	rd := t.searches.Get().(*txSearch)
	defer t.searches.Put(rd)
	v := []uint64{val}
	_, err := t.Do(b1, 1, func(tx *htm.Txn) error {
		// Duplicate check.
		if t.TxFind(tx, b1, key) >= 0 || t.TxFind(tx, b2, key) >= 0 {
			return ErrExists
		}
		// Direct placement.
		for _, b := range [2]uint64{b1, b2} {
			if s, ok := t.TxFree(tx, b); ok {
				t.TxPlace(tx, b, s, key, v)
				return nil
			}
		}
		// DFS search *inside* the transaction (the unoptimized design).
		// Victims derive from the key's hash: concurrent inserts share no
		// generator state, and a re-run repeats the same walk.
		rd.tx, rd.sc.rng = tx, h|1
		for {
			path, ok := t.search(rd, rd.sc, b1, b2)
			if !ok {
				return ErrFull
			}
			i := len(path) - 2
			for ; i >= 0 && t.TxKey(tx, path[i].bucket, path[i].slot) == path[i].key; i-- {
				t.TxMove(tx, path[i].bucket, path[i].slot, path[i+1].bucket, path[i+1].slot)
			}
			if i < 0 {
				t.TxPlace(tx, path[0].bucket, path[0].slot, key, v)
				return nil
			}
			// The walk crossed itself (see walk.search): search again.
		}
	})
	return err
}

// Delete removes key in one transaction.
func (t *TxTable) Delete(key uint64) bool {
	b1, b2 := hashfn.TwoBuckets(t.hash(key), t.nb)
	return t.Remove(b1, b2, key)
}
