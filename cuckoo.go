// Package cuckoohash provides a high-throughput, memory-efficient
// concurrent hash table for small fixed-size key/value items, implementing
// "Algorithmic Improvements for Fast Concurrent Cuckoo Hashing" (Li,
// Andersen, Kaminsky, Freedman — EuroSys 2014), the design released by the
// authors as libcuckoo.
//
// # Design
//
// A Map stores 8-byte keys and fixed-width values in flat arrays of B-way
// set-associative cuckoo buckets: no pointers, no per-entry allocation, and
// usable occupancy beyond 95%. Lookups are optimistic and lock-free (they
// never write shared memory); inserts discover a "cuckoo path" to an empty
// slot with breadth-first search before taking any lock, then execute at
// most ~5 single-pair displacements under striped fine-grained spinlocks.
// See DESIGN.md for the paper-to-code map.
//
// # Choosing a table
//
//   - NewMap: the paper's cuckoo+ table (§4) with fine-grained locking.
//   - package generic: arbitrary key/value types with locked reads and
//     automatic resizing, the libcuckoo-style general-purpose variant (§7).
//
// The paper's other configurations (the §5 lock-elided table and the
// factor-analysis modes of Fig. 5) are internal/core options that the
// figure benchmarks and examples/tsxlab build directly.
//
// # Example
//
//	m, err := cuckoohash.NewMap(cuckoohash.Config{Capacity: 1 << 20})
//	if err != nil { ... }
//	_ = m.Insert(42, 1000)
//	v, ok := m.Lookup(42)
package cuckoohash

import (
	"errors"

	"cuckoohash/internal/core"
)

// Errors returned by table operations.
var (
	// ErrFull means no empty slot is reachable within the search budget;
	// the table needs Grow (or was sized too small).
	ErrFull = core.ErrFull
	// ErrExists is returned by Insert when the key is already present.
	ErrExists = core.ErrExists
)

// Config configures a Map. The zero value of every field selects a sound
// default; only Capacity is required.
type Config struct {
	// Capacity is the number of slots to provision. The table supports
	// filling to ~95% of this before Insert returns ErrFull. Required.
	Capacity uint64
	// Associativity is the bucket width B (4, 8 or 16 are sensible; the
	// paper's default, 8, balances read and write cost — §4.3.3).
	Associativity int
	// ValueWords is the value size in 8-byte words (default 1).
	ValueWords int
	// Seed perturbs the hash function (default 0: fixed hash).
	Seed uint64
	// AutoGrow makes write operations react to a full table by growing it
	// (doubling capacity, briefly stopping the world) instead of returning
	// ErrFull.
	AutoGrow bool
}

// coreOptions is the table NewMap builds for c: the paper's defaults
// (BFS with prefetch, 4096 stripes, M = 2000, fine-grained locking) sized
// for Capacity at Associativity.
func (c Config) coreOptions() (core.Options, error) {
	if c.Capacity == 0 {
		return core.Options{}, errors.New("cuckoohash: Config.Capacity is required")
	}
	assoc := 8
	if c.Associativity != 0 {
		assoc = c.Associativity
	}
	o := core.Sized(c.Capacity, assoc)
	if c.ValueWords != 0 {
		o.ValueWords = c.ValueWords
	}
	o.Seed = c.Seed
	return o, nil
}

// Stats is a snapshot of a Map's operational counters.
type Stats = core.Stats

// Map is the concurrent cuckoo hash table (cuckoo+). All methods are safe
// for concurrent use by any number of goroutines.
type Map struct {
	t        *core.Table
	autoGrow bool
}

// NewMap creates a Map from cfg.
func NewMap(cfg Config) (*Map, error) {
	o, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	t, err := core.NewTable(o)
	if err != nil {
		return nil, err
	}
	return &Map{t: t, autoGrow: cfg.AutoGrow}, nil
}

// MustNewMap is NewMap that panics on error, for tests and examples.
func MustNewMap(cfg Config) *Map {
	m, err := NewMap(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// retryFull reruns op across automatic growth when AutoGrow is enabled.
// Exactly one of the racing writers performs the doubling (GrowIfFull);
// the others observe the halved load factor and retry directly.
func (m *Map) retryFull(op func() error) error {
	for {
		err := op()
		if !m.autoGrow || !errors.Is(err, ErrFull) {
			return err
		}
		if _, gerr := m.t.GrowIfFull(); gerr != nil {
			return gerr
		}
	}
}

// Insert adds key with value val, failing with ErrExists if the key is
// present and ErrFull if no slot is reachable (with Config.AutoGrow the
// table grows instead).
func (m *Map) Insert(key, val uint64) error {
	return m.retryFull(func() error { return m.t.Insert(key, val) })
}

// InsertValue is Insert for multi-word values (len(val) <= ValueWords;
// shorter payloads are zero-extended).
func (m *Map) InsertValue(key uint64, val []uint64) error {
	return m.retryFull(func() error { return m.t.InsertValue(key, val) })
}

// Upsert inserts key or overwrites its existing value.
func (m *Map) Upsert(key, val uint64) error {
	return m.retryFull(func() error { return m.t.Upsert(key, val) })
}

// UpsertValue is Upsert for multi-word values.
func (m *Map) UpsertValue(key uint64, val []uint64) error {
	return m.retryFull(func() error { return m.t.UpsertValue(key, val) })
}

// LookupBatch looks up len(keys) keys at once, writing the first value word
// and presence of each to vals[i] and found[i]. It pipelines the candidate
// bucket accesses (the prefetch idea of §4.3.2 applied to reads), which
// substantially outperforms a Lookup loop on DRAM-resident tables.
func (m *Map) LookupBatch(keys []uint64, vals []uint64, found []bool) {
	m.t.LookupBatch(keys, vals, found)
}

// Update overwrites key's value only if present, reporting whether it was.
func (m *Map) Update(key, val uint64) bool { return m.t.Update(key, val) }

// Lookup returns the (first word of the) value for key. The read is
// optimistic: it takes no locks and writes no shared cache lines.
func (m *Map) Lookup(key uint64) (uint64, bool) { return m.t.Lookup(key) }

// LookupValue copies key's value words into dst (len >= ValueWords),
// reporting whether the key was found.
func (m *Map) LookupValue(key uint64, dst []uint64) bool { return m.t.LookupValue(key, dst) }

// Contains reports whether key is present.
func (m *Map) Contains(key uint64) bool { return m.t.Contains(key) }

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(key uint64) bool { return m.t.Delete(key) }

// Len returns the number of stored keys.
func (m *Map) Len() uint64 { return m.t.Len() }

// Cap returns the number of slots.
func (m *Map) Cap() uint64 { return m.t.Cap() }

// LoadFactor returns Len/Cap.
func (m *Map) LoadFactor() float64 { return m.t.LoadFactor() }

// Grow doubles the table's capacity, blocking concurrent operations for the
// duration of the rehash.
func (m *Map) Grow() error { return m.t.Grow() }

// Range calls fn for every entry until it returns false, under a full-table
// lock (writers block; the value slice is reused across calls).
func (m *Map) Range(fn func(key uint64, val []uint64) bool) { m.t.Range(fn) }

// Clear removes every entry while retaining capacity (stops the world
// briefly, like Grow).
func (m *Map) Clear() { m.t.Clear() }

// Stats returns the map's operational counters.
func (m *Map) Stats() Stats { return m.t.Stats() }

// MemoryFootprint returns the approximate resident bytes of the table: 16 B
// per slot (8-byte key + value) for ValueWords == 1, a zero key word being
// the empty slot, plus the lock-stripe table and 12 KB of padded counter
// shards — the "no pointers" memory story of the paper. TestMemoryFootprint
// holds it to within 1% of the live heap a new Map takes.
func (m *Map) MemoryFootprint() uint64 { return m.t.MemoryFootprint() }
