// Package chained implements a separate-chaining hash table in two
// synchronization flavours, standing in for the paper's two chained-table
// comparison points (see DESIGN.md §2):
//
//   - Sync mode: a concurrent multi-reader/multi-writer table with striped
//     per-bucket spinlocks, the same algorithmic class as Intel TBB's
//     concurrent_hash_map — each key hashes to one bucket, holding that
//     bucket's lock permits exclusive modification.
//   - Unsync mode: the same structure with locking compiled out, a stand-in
//     for C++11 std::unordered_map (thread-unsafe, externally serialized).
//
// Entries are heap-allocated linked-list nodes, deliberately keeping the
// pointer-per-item overhead the paper contrasts with cuckoo+'s flat arrays:
// for 16-byte items this table occupies 2–3× the memory (see
// MemoryFootprint).
package chained

import (
	"errors"
	"sync/atomic"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/hugepage"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/spinlock"
)

// ErrBadOptions reports invalid configuration.
var ErrBadOptions = errors.New("chained: invalid options")

// Options configures a Map.
type Options struct {
	// Buckets is the number of chain heads (power of two).
	Buckets uint64
	// Stripes is the lock-stripe count in Sync mode (power of two).
	Stripes int
	// Sync selects the concurrent (TBB-like) flavour; false gives the
	// unsynchronized (std::unordered_map-like) flavour.
	Sync bool
	// Seed perturbs the hash.
	Seed uint64
	// GrowAt is the load factor (entries per bucket) that triggers a
	// resize; 0 disables resizing (the paper presizes the TBB table).
	GrowAt float64
}

// Defaults sizes the table for n expected entries with one bucket per
// entry, matching how the evaluation initializes the TBB table.
func Defaults(n uint64, sync bool) Options {
	b := uint64(2)
	for b < n {
		b <<= 1
	}
	return Options{Buckets: b, Stripes: 4096, Sync: sync}
}

type node struct {
	key  uint64
	val  uint64
	next *node
}

// Map is the chained hash table.
type Map struct {
	opts  Options
	seed  uint64
	locks *spinlock.Stripe

	mu      spinlock.Mutex // guards resize in Sync mode
	heads   atomic.Pointer[headsArr]
	size    metrics.ShardedCounter
	resizes atomic.Uint64
}

type headsArr struct {
	heads []*node
	mask  uint64
}

// New creates a Map.
func New(o Options) (*Map, error) {
	if o.Buckets < 2 || o.Buckets&(o.Buckets-1) != 0 {
		return nil, ErrBadOptions
	}
	if o.Sync && (o.Stripes <= 0 || o.Stripes&(o.Stripes-1) != 0) {
		return nil, ErrBadOptions
	}
	m := &Map{opts: o, seed: o.Seed, size: metrics.NewShardedCounter(64)}
	if o.Sync {
		m.locks = spinlock.NewStripe(o.Stripes)
	}
	m.heads.Store(newHeads(o.Buckets))
	return m, nil
}

// MustNew panics on configuration errors.
func MustNew(o Options) *Map {
	m, err := New(o)
	if err != nil {
		panic(err)
	}
	return m
}

func newHeads(n uint64) *headsArr {
	return &headsArr{heads: hugepage.Make[*node](n), mask: n - 1}
}

// Len returns the entry count.
func (m *Map) Len() uint64 { return uint64(m.size.Total()) }

// Buckets returns the current bucket count.
func (m *Map) Buckets() uint64 { return m.heads.Load().mask + 1 }

// Resizes returns how many times the table has grown.
func (m *Map) Resizes() uint64 { return m.resizes.Load() }

// MemoryFootprint estimates resident bytes: chain heads plus one 24-byte
// node (plus allocator/GC word overhead, counted as 16 bytes) per entry.
func (m *Map) MemoryFootprint() uint64 {
	return m.Buckets()*8 + m.Len()*(24+16)
}

func (m *Map) bucketOf(key uint64) uint64 {
	return hashfn.Uint64(key, m.seed)
}

// Get returns the value for key.
func (m *Map) Get(key uint64) (uint64, bool) {
	h := m.bucketOf(key)
	if !m.opts.Sync {
		ha := m.heads.Load()
		for n := ha.heads[h&ha.mask]; n != nil; n = n.next {
			if n.key == key {
				return n.val, true
			}
		}
		return 0, false
	}
	for {
		ha := m.heads.Load()
		b := h & ha.mask
		l := m.locks.IndexFor(b)
		m.locks.Lock(l)
		if m.heads.Load() != ha {
			m.locks.Unlock(l)
			continue
		}
		for n := ha.heads[b]; n != nil; n = n.next {
			if n.key == key {
				v := n.val
				m.locks.Unlock(l)
				return v, true
			}
		}
		m.locks.Unlock(l)
		return 0, false
	}
}

// Put inserts or overwrites key.
func (m *Map) Put(key, val uint64) {
	h := m.bucketOf(key)
	if !m.opts.Sync {
		ha := m.heads.Load()
		b := h & ha.mask
		for n := ha.heads[b]; n != nil; n = n.next {
			if n.key == key {
				n.val = val
				return
			}
		}
		ha.heads[b] = &node{key: key, val: val, next: ha.heads[b]}
		m.size.Add(b, 1)
		m.maybeGrowUnsync()
		return
	}
	for {
		ha := m.heads.Load()
		b := h & ha.mask
		l := m.locks.IndexFor(b)
		m.locks.Lock(l)
		if m.heads.Load() != ha {
			m.locks.Unlock(l)
			continue
		}
		for n := ha.heads[b]; n != nil; n = n.next {
			if n.key == key {
				n.val = val
				m.locks.Unlock(l)
				return
			}
		}
		ha.heads[b] = &node{key: key, val: val, next: ha.heads[b]}
		m.locks.Unlock(l)
		m.size.Add(b, 1)
		m.maybeGrowSync()
		return
	}
}

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(key uint64) bool {
	h := m.bucketOf(key)
	if !m.opts.Sync {
		ha := m.heads.Load()
		b := h & ha.mask
		if m.unlink(ha, b, key) {
			m.size.Add(b, -1)
			return true
		}
		return false
	}
	for {
		ha := m.heads.Load()
		b := h & ha.mask
		l := m.locks.IndexFor(b)
		m.locks.Lock(l)
		if m.heads.Load() != ha {
			m.locks.Unlock(l)
			continue
		}
		ok := m.unlink(ha, b, key)
		m.locks.Unlock(l)
		if ok {
			m.size.Add(b, -1)
		}
		return ok
	}
}

func (m *Map) unlink(ha *headsArr, b uint64, key uint64) bool {
	prev := &ha.heads[b]
	for n := *prev; n != nil; n = *prev {
		if n.key == key {
			*prev = n.next
			return true
		}
		prev = &n.next
	}
	return false
}

// Range visits every entry (single-threaded use, or externally quiesced).
func (m *Map) Range(fn func(key, val uint64) bool) {
	ha := m.heads.Load()
	for i := range ha.heads {
		for n := ha.heads[i]; n != nil; n = n.next {
			if !fn(n.key, n.val) {
				return
			}
		}
	}
}

func (m *Map) maybeGrowUnsync() {
	if m.opts.GrowAt <= 0 {
		return
	}
	ha := m.heads.Load()
	if float64(m.Len()) <= m.opts.GrowAt*float64(ha.mask+1) {
		return
	}
	m.rehash(ha, newHeads((ha.mask+1)*2))
}

func (m *Map) maybeGrowSync() {
	if m.opts.GrowAt <= 0 {
		return
	}
	ha := m.heads.Load()
	if float64(m.Len()) <= m.opts.GrowAt*float64(ha.mask+1) {
		return
	}
	// Allocated before any lock is taken, since a large array's huge-page
	// advice is a system call; a grower that loses the race drops it.
	next := newHeads((ha.mask + 1) * 2)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.heads.Load() != ha {
		return // someone else grew
	}
	m.locks.LockAll()
	m.rehash(ha, next)
	m.locks.UnlockAll()
}

func (m *Map) rehash(old, next *headsArr) {
	for i := range old.heads {
		n := old.heads[i]
		for n != nil {
			nx := n.next
			b := m.bucketOf(n.key) & next.mask
			n.next = next.heads[b]
			next.heads[b] = n
			n = nx
		}
	}
	m.heads.Store(next)
	m.resizes.Add(1)
}
