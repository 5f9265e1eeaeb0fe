package openaddr

import (
	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/txarena"
)

// TxMap is the quadratic-probing table under a coarse lock with (emulated)
// TSX lock elision — the dense_hash_map-with-TSX configuration of Figure 2.
// The table is fixed-capacity (a transactional resize would be a guaranteed
// capacity abort, just as dense_hash_map's realloc was a guaranteed
// serialization point).
//
// Arena layout: [state words][keys][vals], one word per slot each. Long
// probe chains near the 0.5 load ceiling drag many lines into the read set,
// which is what makes this design collapse under concurrent elided writers.
type TxMap struct {
	txarena.Elided
	seed uint64
	mask uint64
}

// NewTxMap creates a transactional open-addressing table with at least
// capacity slots.
func NewTxMap(capacity uint64, seed uint64, policy htm.Policy, cfg htm.Config) (*TxMap, error) {
	if capacity > txarena.MaxWords {
		return nil, txarena.ErrTooLarge // the doubling below would not end
	}
	size := uint64(16)
	for size < capacity {
		size <<= 1
	}
	m := &TxMap{seed: seed, mask: size - 1}
	if err := m.Init(3*size, policy, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// MustNewTxMap panics on configuration errors.
func MustNewTxMap(capacity uint64, seed uint64, policy htm.Policy, cfg htm.Config) *TxMap {
	m, err := NewTxMap(capacity, seed, policy, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *TxMap) stateAddr(i uint64) uint32 { return uint32(i) }
func (m *TxMap) keyAddr(i uint64) uint32   { return uint32(m.mask + 1 + i) }
func (m *TxMap) valAddr(i uint64) uint32   { return uint32(2*(m.mask+1) + i) }

// Get returns the value for key.
func (m *TxMap) Get(key uint64) (val uint64, found bool) {
	h := hashfn.Uint64(key, m.seed)
	found = m.Read(func(tx *htm.Txn) error {
		i := h & m.mask
		for probe := uint64(1); probe <= m.mask+1; probe++ {
			switch tx.Load(m.stateAddr(i)) {
			case slotEmpty:
				return txarena.ErrAbsent
			case slotFull:
				if tx.Load(m.keyAddr(i)) == key {
					val = tx.Load(m.valAddr(i))
					return nil
				}
			}
			i = (i + probe) & m.mask
		}
		return txarena.ErrAbsent
	})
	return val, found
}

// Put inserts or overwrites key; ErrFull when no slot is reachable.
func (m *TxMap) Put(key, val uint64) error {
	h := hashfn.Uint64(key, m.seed)
	_, err := m.Do(h, 1, func(tx *htm.Txn) error {
		i := h & m.mask
		for probe := uint64(1); probe <= m.mask+1; probe++ {
			switch tx.Load(m.stateAddr(i)) {
			case slotEmpty, slotDeleted:
				tx.Store(m.keyAddr(i), key)
				tx.Store(m.valAddr(i), val)
				tx.Store(m.stateAddr(i), slotFull)
				return nil
			case slotFull:
				if tx.Load(m.keyAddr(i)) == key {
					tx.Store(m.valAddr(i), val)
					return txarena.ErrReplaced
				}
			}
			i = (i + probe) & m.mask
		}
		return ErrFull
	})
	return err
}

// Delete removes key, leaving a tombstone.
func (m *TxMap) Delete(key uint64) bool {
	h := hashfn.Uint64(key, m.seed)
	deleted, _ := m.Do(h, -1, func(tx *htm.Txn) error {
		i := h & m.mask
		for probe := uint64(1); probe <= m.mask+1; probe++ {
			switch tx.Load(m.stateAddr(i)) {
			case slotEmpty:
				return txarena.ErrAbsent
			case slotFull:
				if tx.Load(m.keyAddr(i)) == key {
					tx.Store(m.stateAddr(i), slotDeleted)
					return nil
				}
			}
			i = (i + probe) & m.mask
		}
		return txarena.ErrAbsent
	})
	return deleted
}
