// Package core implements the paper's primary contribution: the "cuckoo+"
// multi-reader/multi-writer cuckoo hash table (§4).
//
// The design in one paragraph: all items live in a flat array of B-way
// set-associative buckets with no pointers; each key hashes to two candidate
// buckets. Lookups are optimistic — they read bucket versions from a striped
// seqlock table, scan both buckets, and retry on version change, so reads
// dirty no cache lines. Inserts first search for a "cuckoo path" to an empty
// slot *without holding any lock* using breadth-first search over the cuckoo
// graph (§4.3.1, §4.3.2), then execute the (at most L_BFS, Eq. 2)
// displacements hole-backward, locking only the pair of buckets involved in
// each displacement, in stripe order, re-validating the path entry before
// each move (§4.4). An invalidated path aborts the execution and the insert
// restarts; Eq. 1 bounds how rarely that happens.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by table operations.
var (
	// ErrFull means no cuckoo path to an empty slot could be found within
	// the search budget; the table is effectively at maximum occupancy and
	// needs expansion.
	ErrFull = errors.New("cuckoo: table is too full")
	// ErrExists means Insert found the key already present.
	ErrExists = errors.New("cuckoo: key already exists")
	// errAbsent is an internal sentinel for modeUpdate misses.
	errAbsent = errors.New("cuckoo: key not found")
)

// LockMode selects the writer concurrency-control scheme.
type LockMode int

const (
	// LockStriped is the paper's fine-grained scheme (§4.4): each
	// displacement locks only its pair of bucket stripes.
	LockStriped LockMode = iota
	// LockGlobal serializes writers on one global lock, but still performs
	// path search outside the critical section (Algorithm 2). This is the
	// "+lock later" configuration of the factor analysis (Fig. 5).
	LockGlobal
	// LockEarly is MemC3's Algorithm 1, the "cuckoo" baseline of every
	// figure: the global writer lock covers the whole write — duplicate
	// check, path search and execution. On a TxTable the whole insert,
	// search included, is one transaction (§2.3).
	LockEarly
)

// SearchMode selects the empty-slot search strategy.
type SearchMode int

const (
	// SearchBFS is the paper's breadth-first search (§4.3.2), yielding
	// cuckoo paths of at most L_BFS = ceil(log_B(M/2 - M/2B + 1)) moves.
	SearchBFS SearchMode = iota
	// SearchDFS is the MemC3-style two-way random-walk depth-first search,
	// kept as the factor-analysis and ablation baseline.
	SearchDFS
)

// Options configures a Table. The zero value is not valid; use Defaults and
// override fields as needed.
type Options struct {
	// Buckets is the number of buckets; must be a power of two ≥ 2.
	Buckets uint64
	// Assoc is the set-associativity B (slots per bucket), 1–32. The paper
	// evaluates 4, 8 and 16 and defaults to 8 (§4.3.3).
	Assoc int
	// ValueWords is the value size in 8-byte words (≥ 1). Figure 10 sweeps
	// this from 1 (8 B) to 128 (1024 B).
	ValueWords int
	// Stripes is the size of the lock-striping table; must be a power of
	// two. The paper uses 1K–8K entries; default 4096.
	Stripes int
	// MaxSearchSlots is M, the maximum number of slots examined while
	// searching for an empty slot before declaring the table full. The
	// paper (and MemC3) use 2000.
	MaxSearchSlots int
	// Seed perturbs the hash function.
	Seed uint64
	// Locking selects fine-grained striped locks (default) or a global
	// writer lock, taken after the path search or before it.
	Locking LockMode
	// Search selects BFS (default) or the DFS baseline.
	Search SearchMode
	// Prefetch enables the prefetches of §4.3.2: the BFS prefetches the
	// key line of every bucket it enqueues, Table's lookups, writes and
	// deletes prefetch the key line and first value line of both candidate
	// buckets before reading either, and LookupBatch prefetches the key
	// lines of the keys batchWindow ahead. On amd64 each is a PREFETCHT0
	// instruction; elsewhere it is an early read whose value is discarded
	// (internal/prefetch, DESIGN.md §2).
	Prefetch bool
}

// Defaults returns the paper's default configuration scaled to the given
// slot count: 8-way buckets, 4096 lock stripes, M = 2000, BFS with
// prefetch, fine-grained locking.
func Defaults(slots uint64) Options {
	const assoc = 8
	buckets := ceilPow2((slots + assoc - 1) / assoc)
	return Options{
		Buckets:        buckets,
		Assoc:          assoc,
		ValueWords:     1,
		Stripes:        4096,
		MaxSearchSlots: 2000,
		Search:         SearchBFS,
		Prefetch:       true,
	}
}

func ceilPow2(x uint64) uint64 {
	if x < 2 {
		return 2
	}
	p := uint64(1)
	for p < x {
		p <<= 1
	}
	return p
}

func (o *Options) validate() error {
	if o.Buckets < 2 || o.Buckets&(o.Buckets-1) != 0 {
		return fmt.Errorf("cuckoo: Buckets must be a power of two >= 2, got %d", o.Buckets)
	}
	if o.Assoc < 1 || o.Assoc > 32 {
		return fmt.Errorf("cuckoo: Assoc must be in [1,32], got %d", o.Assoc)
	}
	if o.ValueWords < 1 {
		return fmt.Errorf("cuckoo: ValueWords must be >= 1, got %d", o.ValueWords)
	}
	if o.Stripes <= 0 || o.Stripes&(o.Stripes-1) != 0 {
		return fmt.Errorf("cuckoo: Stripes must be a positive power of two, got %d", o.Stripes)
	}
	if o.MaxSearchSlots < 2*o.Assoc {
		return fmt.Errorf("cuckoo: MaxSearchSlots must be >= 2*Assoc, got %d", o.MaxSearchSlots)
	}
	return nil
}

// MaxBFSPathLen evaluates Eq. 2 of the paper: the maximum cuckoo-path
// length produced by BFS for associativity b and search budget m.
func MaxBFSPathLen(b, m int) int {
	if b <= 1 {
		// Degenerate 1-way table: BFS reduces to a chain bounded by m/2.
		return m / 2
	}
	target := float64(m)/2 - float64(m)/(2*float64(b)) + 1
	return int(math.Ceil(math.Log(target) / math.Log(float64(b))))
}
