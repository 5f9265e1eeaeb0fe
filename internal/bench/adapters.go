// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (§6). Each experiment drives scaled-down versions
// of the paper's workloads against the table implementations in this
// repository and renders the same rows/series the paper reports; see
// DESIGN.md §4 for the experiment index and EXPERIMENTS.md for recorded
// results. Absolute throughput is not comparable to the paper's C++/Haswell
// numbers — the shapes (scaling slopes, crossovers, ratios) are the
// reproduced object.
package bench

import (
	"errors"

	"cuckoohash/internal/chained"
	"cuckoohash/internal/core"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/openaddr"
	"cuckoohash/internal/spinlock"
)

// errStop tells the driver a table cannot accept more inserts.
var errStop = errors.New("bench: table full")

// KV is the minimal interface the drivers need. Insert must return errStop
// (or wrap core.ErrFull et al.) when the table cannot take more keys.
type KV interface {
	Insert(key, val uint64) error
	Lookup(key uint64) (uint64, bool)
	Delete(key uint64) bool
	Len() uint64
	Cap() uint64
}

// TxStatser is implemented by adapters whose table runs under emulated HTM.
type TxStatser interface {
	TxStats() htm.Stats
}

// Scheme is a named table constructor. slots is the number of key slots to
// provision; valueWords the value width.
type Scheme struct {
	Name string
	// New builds a fresh table. threads tells arena-based tables how many
	// writer goroutines will use it (ignored by most).
	New func(slots uint64, valueWords, threads int, seed uint64) KV
	// SingleWriter marks tables whose Insert already serializes internally
	// or must be externally serialized.
	SingleWriter bool
}

// stopIfFull maps every table's "no room" error to errStop; other errors
// (ErrExists, arena exhaustion) pass through for the driver to count.
func stopIfFull(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, core.ErrFull) || errors.Is(err, openaddr.ErrFull) {
		return errStop
	}
	return err
}

// The adapters below embed the table they adapt, so whatever of KV it
// already implements is promoted and statically dispatched; each writes out
// only what differs (the errStop mapping, Put/Get naming, TxStats). Routing
// them through one interface-typed adapter instead cost the fastest rows
// (dense_hash_map, 60-270 ns an operation) 17-21% in dynamic calls.

// --- cuckoo+ (core) adapters ---

type coreKV struct{ *core.Table }

func (a coreKV) Insert(k, v uint64) error { return stopIfFull(a.Table.Insert(k, v)) }

func coreOptions(slots uint64, valueWords int, seed uint64) core.Options {
	o := core.Defaults(slots)
	o.ValueWords = valueWords
	o.Seed = seed
	return o
}

// assocOptions is coreOptions at set-associativity assoc, with the bucket
// count re-derived for slots.
func assocOptions(slots uint64, valueWords, assoc int, seed uint64) core.Options {
	o := coreOptions(slots, valueWords, seed)
	o.Assoc = assoc
	o.Buckets = 2
	for o.Buckets*uint64(assoc) < slots {
		o.Buckets <<= 1
	}
	return o
}

// CuckooPlusFG is cuckoo+ with fine-grained striped locking (§4.4).
func CuckooPlusFG() Scheme {
	return Scheme{
		Name: "cuckoo+ fine-grained",
		New: func(slots uint64, vw, _ int, seed uint64) KV {
			return coreKV{core.MustNewTable(coreOptions(slots, vw, seed))}
		},
	}
}

// CuckooPlusGlobal is cuckoo+ with a global writer lock ("+lock later",
// optimized algorithm but coarse locking).
func CuckooPlusGlobal() Scheme {
	return Scheme{
		Name: "cuckoo+",
		New: func(slots uint64, vw, _ int, seed uint64) KV {
			o := coreOptions(slots, vw, seed)
			o.Locking = core.LockGlobal
			return coreKV{core.MustNewTable(o)}
		},
	}
}

// CuckooPlusVariant exposes the factor-analysis knobs (Fig. 5).
func CuckooPlusVariant(name string, locking core.LockMode, search core.SearchMode, prefetch bool) Scheme {
	return Scheme{
		Name: name,
		New: func(slots uint64, vw, _ int, seed uint64) KV {
			o := coreOptions(slots, vw, seed)
			o.Locking = locking
			o.Search = search
			o.Prefetch = prefetch
			return coreKV{core.MustNewTable(o)}
		},
	}
}

// CuckooPlusAssoc is cuckoo+ (fine-grained) at a given associativity.
func CuckooPlusAssoc(assoc int, prefix string) Scheme {
	return Scheme{
		Name: prefix,
		New: func(slots uint64, vw, _ int, seed uint64) KV {
			return coreKV{core.MustNewTable(assocOptions(slots, vw, assoc, seed))}
		},
	}
}

type coreTxKV struct{ *core.TxTable }

func (a coreTxKV) Insert(k, v uint64) error { return stopIfFull(a.TxTable.Insert(k, v)) }
func (a coreTxKV) TxStats() htm.Stats       { return a.Region().Stats() }

// CuckooPlusTSX is cuckoo+ under coarse locking with emulated lock elision
// (§5); policy selects the TSX* or glibc retry policy.
func CuckooPlusTSX(name string, policy htm.Policy, search core.SearchMode, prefetch bool) Scheme {
	return Scheme{
		Name: name,
		New: func(slots uint64, vw, _ int, seed uint64) KV {
			o := coreOptions(slots, vw, seed)
			o.Search = search
			o.Prefetch = prefetch
			return coreTxKV{core.MustNewTxTable(o, policy, htm.DefaultConfig())}
		},
	}
}

// CuckooPlusTSXAssoc is the elided cuckoo+ at a given associativity
// (Figs. 8–9 use "optimized cuckoo hashing with TSX lock elision").
func CuckooPlusTSXAssoc(assoc int, name string) Scheme {
	return Scheme{
		Name: name,
		New: func(slots uint64, vw, _ int, seed uint64) KV {
			return coreTxKV{core.MustNewTxTable(assocOptions(slots, vw, assoc, seed), htm.PolicyTuned, htm.DefaultConfig())}
		},
	}
}

// --- MemC3 baseline adapters ---

// baselineOptions is MemC3's configuration of the core table: Algorithm 1
// (the writer lock held through the search), the random-walk DFS, no
// prefetch, M = 2000 and 4096 stripes. assoc selects the set-associativity
// (MemC3's own default is 4; the factor analysis holds it at 8 to isolate
// the algorithmic deltas).
func baselineOptions(slots uint64, vw, assoc int, seed uint64) core.Options {
	o := assocOptions(slots, vw, assoc, seed)
	o.Locking = core.LockEarly
	o.Search = core.SearchDFS
	o.Prefetch = false
	return o
}

// Memc3 is the optimistic concurrent cuckoo baseline ("cuckoo" in the
// figures): multi-reader, single global writer lock, Algorithm 1.
func Memc3(assoc int) Scheme {
	return Scheme{
		Name:         "cuckoo",
		SingleWriter: true,
		New: func(slots uint64, vw, _ int, seed uint64) KV {
			return coreKV{core.MustNewTable(baselineOptions(slots, vw, assoc, seed))}
		},
	}
}

// Memc3TSX is the unoptimized cuckoo under coarse-lock elision (whole
// Algorithm 1 in one transaction).
func Memc3TSX(name string, policy htm.Policy, assoc int) Scheme {
	return Scheme{
		Name: name,
		New: func(slots uint64, vw, _ int, seed uint64) KV {
			return coreTxKV{core.MustNewTxTable(baselineOptions(slots, vw, assoc, seed), policy, htm.DefaultConfig())}
		},
	}
}

// --- chained adapters ---

type chainedKV struct{ m *chained.Map }

func (a chainedKV) Insert(k, v uint64) error       { a.m.Put(k, v); return nil }
func (a chainedKV) Lookup(k uint64) (uint64, bool) { return a.m.Get(k) }
func (a chainedKV) Delete(k uint64) bool           { return a.m.Delete(k) }
func (a chainedKV) Len() uint64                    { return a.m.Len() }
func (a chainedKV) Cap() uint64                    { return a.m.Buckets() }

// TBB is the Intel-TBB-analog concurrent chained map, presized like the
// paper ("we initialize the TBB table with the same number of buckets").
func TBB() Scheme {
	return Scheme{
		Name: "TBB chained",
		New: func(slots uint64, _, _ int, seed uint64) KV {
			o := chained.Defaults(slots, true)
			o.Seed = seed
			return chainedKV{chained.MustNew(o)}
		},
	}
}

// Unordered is the std::unordered_map analog: unsynchronized chained map.
// Callers must serialize access (see LockWrapped).
func Unordered() Scheme {
	return Scheme{
		Name:         "unordered_map",
		SingleWriter: true,
		New: func(slots uint64, _, _ int, seed uint64) KV {
			o := chained.Defaults(slots, false)
			o.Seed = seed
			return chainedKV{chained.MustNew(o)}
		},
	}
}

// chainedTxKV adapts a genuinely different signature: TxMap.Put takes the
// calling thread (for per-thread allocation), and the map has no Delete.
type chainedTxKV struct{ m *chained.TxMap }

func (a chainedTxKV) TxStats() htm.Stats { return a.m.Region().Stats() }

func (a chainedTxKV) Insert(k, v uint64) error {
	if err := a.m.Put(0, k, v); err != nil {
		return errStop
	}
	return nil
}
func (a chainedTxKV) Lookup(k uint64) (uint64, bool) { return a.m.Get(k) }
func (a chainedTxKV) Delete(k uint64) bool           { return false }
func (a chainedTxKV) Len() uint64                    { return a.m.Len() }
func (a chainedTxKV) Cap() uint64                    { return 0 }

// UnorderedTSX is the chained map under coarse-lock elision with the shared
// bump allocator (the allocation-conflict configuration of §5).
func UnorderedTSX(name string, policy htm.Policy) Scheme {
	return Scheme{
		Name: name,
		New: func(slots uint64, _, _ int, seed uint64) KV {
			b := uint64(2)
			for b < slots {
				b <<= 1
			}
			return chainedTxKV{chained.MustNewTxMap(b, slots+slots/4, seed, policy, false, htm.DefaultConfig())}
		},
	}
}

// --- open-addressing adapters ---

type openKV struct{ *openaddr.Map }

func (a openKV) Insert(k, v uint64) error       { return stopIfFull(a.Put(k, v)) }
func (a openKV) Lookup(k uint64) (uint64, bool) { return a.Get(k) }

type openTxKV struct{ *openaddr.TxMap }

func (a openTxKV) Insert(k, v uint64) error       { return stopIfFull(a.Put(k, v)) }
func (a openTxKV) Lookup(k uint64) (uint64, bool) { return a.Get(k) }
func (a openTxKV) TxStats() htm.Stats             { return a.Region().Stats() }

// Dense is the dense_hash_map analog: quadratic probing, 0.5 max load,
// single-threaded (see LockWrapped for the §2.3 global-lock wrapping).
func Dense() Scheme {
	return Scheme{
		Name:         "dense_hash_map",
		SingleWriter: true,
		New: func(slots uint64, _, _ int, seed uint64) KV {
			// Presize to keep the live load under 0.5 without resizing,
			// the configuration most favourable to dense_hash_map.
			return openKV{openaddr.New(slots*2, seed, 0.5, false)}
		},
	}
}

// DenseTSX is the open-addressing table under coarse-lock elision.
func DenseTSX(name string, policy htm.Policy) Scheme {
	return Scheme{
		Name: name,
		New: func(slots uint64, _, _ int, seed uint64) KV {
			return openTxKV{openaddr.MustNewTxMap(slots*2, seed, policy, htm.DefaultConfig())}
		},
	}
}

// --- global-lock wrapper ---

type lockedKV struct {
	mu spinlock.Mutex
	kv KV
}

func (a *lockedKV) Insert(k, v uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.kv.Insert(k, v)
}
func (a *lockedKV) Lookup(k uint64) (uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.kv.Lookup(k)
}
func (a *lockedKV) Delete(k uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.kv.Delete(k)
}
func (a *lockedKV) Len() uint64 { return a.kv.Len() }
func (a *lockedKV) Cap() uint64 { return a.kv.Cap() }

// LockWrapped wraps a single-writer scheme in one global spinlock, the
// naive-concurrency baseline of §2.3.
func LockWrapped(name string, inner Scheme) Scheme {
	return Scheme{
		Name: name,
		New: func(slots uint64, vw, threads int, seed uint64) KV {
			return &lockedKV{kv: inner.New(slots, vw, threads, seed)}
		},
	}
}
