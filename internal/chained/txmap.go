package chained

import (
	"errors"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/txarena"
)

// ErrArenaFull reports node-arena exhaustion in a TxMap.
var ErrArenaFull = errors.New("chained: node arena exhausted")

// TxMap is the chained hash table under a coarse lock with (emulated) TSX
// lock elision: the std::unordered_map-with-TSX configuration of Figure 2.
//
// Nodes come from a bump allocator inside the transactional arena. In the
// default mode the allocation cursor is one shared word, so *every* pair of
// concurrent inserts conflicts on it — the dynamic-memory-allocation abort
// problem §5 observed with chained hashing and Masstree. With
// PerThreadChunks enabled, each thread refills a private cursor from the
// shared one in batches (the paper's suggested pre-allocation fix,
// principle P3), eliminating almost all allocator conflicts; the ablation
// benchmark compares the two.
type TxMap struct {
	txarena.Elided
	nb       uint64
	seed     uint64
	capacity uint64
	chunked  bool
}

// Arena layout (word addresses):
//
//	0:                       shared allocation cursor (node address)
//	8, 16, ... 8*threads:    per-thread cursors: [cur, limit] pairs, one line each
//	headBase .. +nb:         chain heads (0 = nil)
//	nodeBase ..:             node records: key, val, next
const (
	txMaxThreads = 64
	chunkNodes   = 64
	nodeWords    = 3
)

// NewTxMap creates a transactional chained map with room for capacity
// entries.
func NewTxMap(buckets, capacity uint64, seed uint64, policy htm.Policy, perThreadChunks bool, cfg htm.Config) (*TxMap, error) {
	if buckets < 2 || buckets&(buckets-1) != 0 || capacity == 0 {
		return nil, ErrBadOptions
	}
	if buckets > txarena.MaxWords || capacity > txarena.MaxWords {
		return nil, txarena.ErrTooLarge // the sum below would overflow
	}
	m := &TxMap{nb: buckets, seed: seed, capacity: capacity, chunked: perThreadChunks}
	headerWords := uint64(8 * (txMaxThreads + 1))
	if err := m.Init(headerWords+buckets+capacity*nodeWords, policy, cfg); err != nil {
		return nil, err
	}
	// The first node address; 0 stays reserved as the nil sentinel.
	m.Region().Words()[0] = uint64(m.nodeBase())
	return m, nil
}

// MustNewTxMap panics on configuration errors.
func MustNewTxMap(buckets, capacity uint64, seed uint64, policy htm.Policy, perThreadChunks bool, cfg htm.Config) *TxMap {
	m, err := NewTxMap(buckets, capacity, seed, policy, perThreadChunks, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *TxMap) headBase() uint32 { return 8 * (txMaxThreads + 1) }
func (m *TxMap) nodeBase() uint32 { return m.headBase() + uint32(m.nb) }
func (m *TxMap) arenaEnd() uint32 {
	return m.nodeBase() + uint32(m.capacity)*nodeWords
}

func (m *TxMap) headAddr(key uint64) uint32 {
	return m.headBase() + uint32(hashfn.Uint64(key, m.seed)&(m.nb-1))
}

// alloc reserves one node inside tx, from the shared cursor or the thread's
// chunk.
func (m *TxMap) alloc(tx *htm.Txn, thread int) (uint32, error) {
	if !m.chunked {
		cur := tx.Load(0)
		if uint32(cur)+nodeWords > m.arenaEnd() {
			return 0, ErrArenaFull
		}
		tx.Store(0, cur+nodeWords)
		return uint32(cur), nil
	}
	base := uint32(8 * (thread%txMaxThreads + 1))
	cur := tx.Load(base)
	limit := tx.Load(base + 1)
	if cur >= limit {
		// Refill the private chunk from the shared cursor; this is the
		// only time the shared line enters the transaction's write set.
		shared := tx.Load(0)
		if uint32(shared)+nodeWords > m.arenaEnd() {
			return 0, ErrArenaFull
		}
		take := uint64(chunkNodes * nodeWords)
		if uint64(m.arenaEnd())-shared < take {
			take = uint64(m.arenaEnd()) - shared
		}
		tx.Store(0, shared+take)
		cur = shared
		limit = shared + take
		tx.Store(base+1, limit)
	}
	tx.Store(base, cur+nodeWords)
	return uint32(cur), nil
}

// Put inserts or overwrites key. thread identifies the calling goroutine
// for per-thread allocation (ignored in shared-cursor mode).
func (m *TxMap) Put(thread int, key, val uint64) error {
	h := m.headAddr(key)
	_, err := m.Do(uint64(h), 1, func(tx *htm.Txn) error {
		if n, ok := m.find(tx, h, key); ok {
			tx.Store(n+1, val)
			return txarena.ErrReplaced
		}
		n, err := m.alloc(tx, thread)
		if err != nil {
			return err
		}
		tx.Store(n, key)
		tx.Store(n+1, val)
		tx.Store(n+2, tx.Load(h))
		tx.Store(h, uint64(n))
		return nil
	})
	return err
}

// Get returns the value for key.
func (m *TxMap) Get(key uint64) (val uint64, found bool) {
	h := m.headAddr(key)
	found = m.Read(func(tx *htm.Txn) error {
		n, ok := m.find(tx, h, key)
		if !ok {
			return txarena.ErrAbsent
		}
		val = tx.Load(n + 1)
		return nil
	})
	return val, found
}

// find walks the chain at head address h for key's node.
func (m *TxMap) find(tx *htm.Txn, h uint32, key uint64) (uint32, bool) {
	// A zombie transaction (stale read set, doomed to abort at commit) can
	// observe a cyclic or garbage list; bound the walk so it reaches commit
	// and aborts instead of spinning.
	steps := m.capacity
	for n := uint32(tx.Load(h)); m.validNode(n) && steps > 0; n, steps = uint32(tx.Load(n+2)), steps-1 {
		if tx.Load(n) == key {
			return n, true
		}
	}
	return 0, false
}

// validNode reports whether n is a plausible in-arena node address; zombie
// transactions may read garbage pointers that must not be dereferenced.
func (m *TxMap) validNode(n uint32) bool {
	return n >= m.nodeBase() && n+nodeWords <= m.arenaEnd()
}
