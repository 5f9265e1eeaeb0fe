package core

import (
	"fmt"
	"testing"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

// oneSearchTable is what TestOneSearchTwoBackends drives on every table.
type oneSearchTable interface {
	Insert(key, val uint64) error
	Upsert(key, val uint64) error
	Delete(key uint64) bool
	Lookup(key uint64) (uint64, bool)
	Len() uint64
	Stats() Stats
}

// TestOneSearchTwoBackends pins that Table and TxTable are one algorithm
// under two concurrency-control backends (§4.3 and §5), that taking the
// writer lock before the search (LockEarly, Algorithm 1) or after it only
// moves the critical section, and that Options.Prefetch only reads: the
// same seeded, single-threaded insert/upsert/delete sequence to load
// factor 0.95 must return the same result at every step, leave the same
// contents, and have searched, displaced and measured exactly the same
// paths on both backends, with the lock taken early or late and the
// prefetches on and off — for BFS and for the DFS baseline. Any drift
// between the locked and the elided write path, between what their
// searches read (the elided early search reads through its transaction),
// or a prefetch that changes what it warms, shows up as a counter
// mismatch.
func TestOneSearchTwoBackends(t *testing.T) {
	for _, mode := range []SearchMode{SearchBFS, SearchDFS} {
		name := map[SearchMode]string{SearchBFS: "BFS", SearchDFS: "DFS"}[mode]
		t.Run(name, func(t *testing.T) {
			var names []string
			var tabs []oneSearchTable
			for _, locking := range []LockMode{LockGlobal, LockEarly} {
				for _, prefetch := range []bool{true, false} {
					o := testOptions(1 << 12)
					o.Search = mode
					o.Locking = locking
					o.Prefetch = prefetch
					lock := map[LockMode]string{LockGlobal: "late", LockEarly: "early"}[locking]
					names = append(names,
						fmt.Sprintf("locked %s prefetch=%v", lock, prefetch),
						fmt.Sprintf("elided %s prefetch=%v", lock, prefetch))
					tabs = append(tabs, MustNewTable(o), MustNewTxTable(o, htm.PolicyTuned, htm.DefaultConfig()))
				}
			}
			locked := tabs[0].(*Table)

			rnd := workload.NewRand(7)
			oracle := make(map[uint64]uint64)
			var present []uint64
			next := uint64(1)
			errs := make([]error, len(tabs))
			dels := make([]bool, len(tabs))
			for step := 0; locked.LoadFactor() < 0.95; step++ {
				clear(errs)
				clear(dels)
				switch op := rnd.Intn(10); {
				case op < 7: // insert a new key
					k, v := next, rnd.Next()
					next++
					for i, tab := range tabs {
						errs[i] = tab.Insert(k, v)
					}
					if errs[0] == nil {
						oracle[k] = v
						present = append(present, k)
					}
				case op < 9: // upsert: overwrite a present key, or add one
					k, v := rnd.Intn(next+64)+1, rnd.Next()
					if k >= next {
						next = k + 1
					}
					for i, tab := range tabs {
						errs[i] = tab.Upsert(k, v)
					}
					if errs[0] == nil {
						if _, ok := oracle[k]; !ok {
							present = append(present, k)
						}
						oracle[k] = v
					}
				case len(present) > 0: // delete a present key
					i := rnd.Intn(uint64(len(present)))
					k := present[i]
					present[i] = present[len(present)-1]
					present = present[:len(present)-1]
					delete(oracle, k)
					for i, tab := range tabs {
						dels[i] = tab.Delete(k)
					}
					if !dels[0] {
						t.Fatalf("step %d: Delete(%d) of a present key = false", step, k)
					}
				}
				for i := range tabs[1:] {
					if errs[i+1] != errs[0] || dels[i+1] != dels[0] {
						t.Fatalf("step %d: %s = (%v, %v), %s = (%v, %v)",
							step, names[0], errs[0], dels[0], names[i+1], errs[i+1], dels[i+1])
					}
				}
			}

			for i, tab := range tabs {
				if tab.Len() != uint64(len(oracle)) {
					t.Fatalf("Len: %s %d, oracle %d", names[i], tab.Len(), len(oracle))
				}
			}
			for k, want := range oracle {
				for i, tab := range tabs {
					if v, ok := tab.Lookup(k); !ok || v != want {
						t.Fatalf("Lookup(%d): %s %d,%v want %d", k, names[i], v, ok, want)
					}
				}
			}
			s0 := tabs[0].Stats().ProbeStats
			for i, tab := range tabs[1:] {
				if s := tab.Stats().ProbeStats; s != s0 {
					t.Fatalf("stats diverged:\n%s %+v\n%s %+v", names[0], s0, names[i+1], s)
				}
			}
			if s0.Searches == 0 || s0.Displacements == 0 || s0.MaxPathLen == 0 {
				t.Fatalf("sequence never reached the slow path: %+v", s0)
			}
			t.Logf("%d entries, %+v", len(oracle), s0)
		})
	}
}
