// Package openaddr implements an open-addressing hash table with quadratic
// probing, the stand-in for Google dense_hash_map (see DESIGN.md §2): one
// large flat array, a 0.5 maximum load factor bought with space for raw
// single-threaded speed, and no internal thread safety whatsoever — the
// evaluation wraps it in a global lock or (emulated) lock elision, as §2.3
// did.
package openaddr

import (
	"errors"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/hugepage"
)

// ErrFull reports that an insert could not find a slot (only possible when
// resizing is disabled).
var ErrFull = errors.New("openaddr: table is full")

// slot states, kept in a separate byte array exactly like dense_hash_map's
// distinguished empty/deleted keys keep probe chains scannable.
const (
	slotEmpty = iota
	slotFull
	slotDeleted
)

// Map is the quadratic-probing table. It is NOT safe for concurrent use.
type Map struct {
	seed    uint64
	mask    uint64
	keys    []uint64
	vals    []uint64
	state   []uint8
	n       uint64 // live entries
	tomb    uint64 // deleted entries
	maxLoad float64
	fixed   bool // resizing disabled
	resizes uint64
}

// New creates a table with at least capacity slots. maxLoad is the resize
// threshold (dense_hash_map's default is 0.5); fixed disables resizing.
func New(capacity uint64, seed uint64, maxLoad float64, fixed bool) *Map {
	if maxLoad <= 0 || maxLoad >= 1 {
		maxLoad = 0.5
	}
	size := uint64(16)
	for size < capacity {
		size <<= 1
	}
	return &Map{
		seed:    seed,
		mask:    size - 1,
		keys:    hugepage.Make[uint64](size),
		vals:    hugepage.Make[uint64](size),
		state:   hugepage.Make[uint8](size),
		maxLoad: maxLoad,
		fixed:   fixed,
	}
}

// Len returns the live entry count.
func (m *Map) Len() uint64 { return m.n }

// Cap returns the slot count.
func (m *Map) Cap() uint64 { return m.mask + 1 }

// Resizes returns how many times the table has grown.
func (m *Map) Resizes() uint64 { return m.resizes }

// MemoryFootprint returns the resident bytes of the backing arrays.
func (m *Map) MemoryFootprint() uint64 { return m.Cap() * (8 + 8 + 1) }

// Get returns the value for key.
func (m *Map) Get(key uint64) (uint64, bool) {
	h := hashfn.Uint64(key, m.seed)
	i := h & m.mask
	for probe := uint64(1); ; probe++ {
		switch m.state[i] {
		case slotEmpty:
			return 0, false
		case slotFull:
			if m.keys[i] == key {
				return m.vals[i], true
			}
		}
		i = (i + probe) & m.mask // quadratic: offsets 1,3,6,10,...
		if probe > m.mask {
			return 0, false
		}
	}
}

// Put inserts or overwrites key.
func (m *Map) Put(key, val uint64) error {
	if !m.fixed && float64(m.n+m.tomb+1) > m.maxLoad*float64(m.Cap()) {
		m.grow()
	}
	h := hashfn.Uint64(key, m.seed)
	i := h & m.mask
	insertAt := int64(-1)
	for probe := uint64(1); ; probe++ {
		switch m.state[i] {
		case slotEmpty:
			if insertAt >= 0 {
				i = uint64(insertAt)
			}
			m.keys[i] = key
			m.vals[i] = val
			if m.state[i] == slotDeleted {
				m.tomb--
			}
			m.state[i] = slotFull
			m.n++
			return nil
		case slotDeleted:
			if insertAt < 0 {
				insertAt = int64(i)
			}
		case slotFull:
			if m.keys[i] == key {
				m.vals[i] = val
				return nil
			}
		}
		i = (i + probe) & m.mask
		if probe > m.mask {
			if insertAt >= 0 {
				i = uint64(insertAt)
				m.keys[i] = key
				m.vals[i] = val
				m.tomb--
				m.state[i] = slotFull
				m.n++
				return nil
			}
			return ErrFull
		}
	}
}

// Delete removes key, reporting whether it was present. The slot becomes a
// tombstone so later probe chains stay intact.
func (m *Map) Delete(key uint64) bool {
	h := hashfn.Uint64(key, m.seed)
	i := h & m.mask
	for probe := uint64(1); ; probe++ {
		switch m.state[i] {
		case slotEmpty:
			return false
		case slotFull:
			if m.keys[i] == key {
				m.state[i] = slotDeleted
				m.n--
				m.tomb++
				return true
			}
		}
		i = (i + probe) & m.mask
		if probe > m.mask {
			return false
		}
	}
}

// Range visits every live entry.
func (m *Map) Range(fn func(key, val uint64) bool) {
	for i := range m.keys {
		if m.state[i] == slotFull && !fn(m.keys[i], m.vals[i]) {
			return
		}
	}
}

func (m *Map) grow() {
	old := *m
	size := (m.mask + 1) * 2
	m.mask = size - 1
	m.keys = hugepage.Make[uint64](size)
	m.vals = hugepage.Make[uint64](size)
	m.state = hugepage.Make[uint8](size)
	m.n = 0
	m.tomb = 0
	m.resizes++
	for i := range old.keys {
		if old.state[i] == slotFull {
			// Reinsertion cannot fail: the new table is at most quarter
			// full.
			_ = m.Put(old.keys[i], old.vals[i])
		}
	}
}
