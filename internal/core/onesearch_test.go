package core

import (
	"testing"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

// TestOneSearchTwoBackends pins that Table and TxTable are one algorithm
// under two concurrency-control backends (§4.3 and §5): the same seeded,
// single-threaded insert/upsert/delete sequence to load factor 0.95 must
// return the same result at every step, leave the same contents, and have
// searched, displaced and measured exactly the same paths — for BFS and for
// the DFS baseline. Any drift between the locked and the elided write path,
// or between what their searches read, shows up as a counter mismatch.
func TestOneSearchTwoBackends(t *testing.T) {
	for _, mode := range []SearchMode{SearchBFS, SearchDFS} {
		name := map[SearchMode]string{SearchBFS: "BFS", SearchDFS: "DFS"}[mode]
		t.Run(name, func(t *testing.T) {
			o := testOptions(1 << 12)
			o.Search = mode
			o.Locking = LockGlobal
			locked := MustNewTable(o)
			elided := MustNewTxTable(o, htm.PolicyTuned, htm.DefaultConfig())

			rnd := workload.NewRand(7)
			oracle := make(map[uint64]uint64)
			var present []uint64
			next := uint64(1)
			for step := 0; locked.LoadFactor() < 0.95; step++ {
				var e1, e2 error
				var d1, d2 bool
				switch op := rnd.Intn(10); {
				case op < 7: // insert a new key
					k, v := next, rnd.Next()
					next++
					e1, e2 = locked.Insert(k, v), elided.Insert(k, v)
					if e1 == nil {
						oracle[k] = v
						present = append(present, k)
					}
				case op < 9: // upsert: overwrite a present key, or add one
					k, v := rnd.Intn(next+64)+1, rnd.Next()
					if k >= next {
						next = k + 1
					}
					e1, e2 = locked.Upsert(k, v), elided.Upsert(k, v)
					if e1 == nil {
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
					d1, d2 = locked.Delete(k), elided.Delete(k)
					if !d1 {
						t.Fatalf("step %d: Delete(%d) of a present key = false", step, k)
					}
				}
				if e1 != e2 || d1 != d2 {
					t.Fatalf("step %d: locked = (%v, %v), elided = (%v, %v)", step, e1, d1, e2, d2)
				}
			}

			if locked.Len() != uint64(len(oracle)) || elided.Len() != locked.Len() {
				t.Fatalf("Len: locked %d, elided %d, oracle %d", locked.Len(), elided.Len(), len(oracle))
			}
			for k, want := range oracle {
				v1, ok1 := locked.Lookup(k)
				v2, ok2 := elided.Lookup(k)
				if !ok1 || !ok2 || v1 != want || v2 != want {
					t.Fatalf("Lookup(%d): locked %d,%v elided %d,%v want %d", k, v1, ok1, v2, ok2, want)
				}
			}
			s1, s2 := locked.Stats().ProbeStats, elided.Stats().ProbeStats
			if s1 != s2 {
				t.Fatalf("stats diverged:\nlocked %+v\nelided %+v", s1, s2)
			}
			if s1.Searches == 0 || s1.Displacements == 0 || s1.MaxPathLen == 0 {
				t.Fatalf("sequence never reached the slow path: %+v", s1)
			}
			t.Logf("%d entries, %+v", len(oracle), s1)
		})
	}
}
