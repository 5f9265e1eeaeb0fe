package generic

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestInsertIfAbsentAtomicity: when many goroutines race to Insert the same
// key, exactly one must win and everyone else must observe ErrExists — the
// property the dedup example depends on.
func TestInsertIfAbsentAtomicity(t *testing.T) {
	tab := MustNew[uint64, int](Config{InitialCapacity: 1 << 10})
	const racers = 8
	const keys = 2000
	winners := make([][]uint64, racers)
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := uint64(1); k <= keys; k++ {
				err := tab.Insert(k, g)
				switch {
				case err == nil:
					winners[g] = append(winners[g], k)
				case errors.Is(err, ErrExists):
				default:
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var totalWins int
	for _, w := range winners {
		totalWins += len(w)
	}
	if totalWins != keys {
		t.Fatalf("%d wins for %d keys: insert-if-absent not atomic", totalWins, keys)
	}
	// The stored value must match the recorded winner.
	for g, w := range winners {
		for _, k := range w {
			if v, ok := tab.Get(k); !ok || v != g {
				t.Fatalf("key %d: value %d,%v but goroutine %d won", k, v, ok, g)
			}
		}
	}
	for tab.Growing() {
		tab.migrateBatch(64)
	}
	checkSlots(t, tab)
}

// TestGetWhileGrowing hammers reads across automatic resizes.
func TestGetWhileGrowing(t *testing.T) {
	tab := MustNew[uint64, uint64](Config{InitialCapacity: 64})
	// Stable witnesses.
	for k := uint64(1); k <= 50; k++ {
		if err := tab.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(n%50) + 1
				if v, ok := tab.Get(k); !ok || v != k {
					t.Errorf("witness %d = %d,%v during growth", k, v, ok)
					return
				}
			}
		}()
	}
	for k := uint64(1000); k < 20000; k++ {
		if err := tab.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	for tab.Growing() {
		tab.migrateBatch(64)
	}
	checkSlots(t, tab)
}

// TestSearchRacesWriters holds B = 4 and B = 8 tables above 0.9 full while
// inserters force path searches and displacements and churners delete and
// upsert keys of their own beside them. A search reads tag words with no
// stripe held, so what it saw goes stale as often as these writers can make
// it, and only the hop-by-hop validation stands between a stale path and a
// lost or doubled key. Every writer checks each Delete against what it
// was acknowledged; after the storm every acknowledged key must read back
// and the slots must keep their invariants.
func TestSearchRacesWriters(t *testing.T) {
	const slots, inserters, churners, ops = 4096, 2, 2, 8000
	for _, assoc := range []int{4, 8} {
		t.Run(fmt.Sprintf("B%d", assoc), func(t *testing.T) {
			tab, err := New[int, int](Config{InitialCapacity: slots, MaxCapacity: slots, Associativity: assoc,
				DisableAutoGrow: true})
			if err != nil {
				t.Fatal(err)
			}
			const base = slots * 9 / 10
			for k := range base {
				if err := tab.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			models := make([]map[int]int, inserters+churners)
			var wg sync.WaitGroup
			for w := range inserters {
				models[w] = map[int]int{}
				wg.Add(1)
				go func(model map[int]int) {
					defer wg.Done()
					var mine []int // acknowledged and not yet deleted, oldest first
					for i := range ops {
						k := (w+1)<<20 + i
						switch err := tab.Insert(k, -k); err {
						case nil:
							mine, model[k] = append(mine, k), -k
						case ErrFull: // make room: the oldest key of its own goes
							if len(mine) > 0 {
								if !tab.Delete(mine[0]) {
									t.Errorf("Delete(%d) of an acknowledged insert = false", mine[0])
									return
								}
								delete(model, mine[0])
								mine = mine[1:]
							}
						default:
							t.Errorf("Insert(%d): %v", k, err)
							return
						}
					}
				}(models[w])
			}
			for c := range churners {
				model := map[int]int{}
				for k := c; k < base; k += churners {
					model[k] = k
				}
				models[inserters+c] = model
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range ops {
						k := c + i*churners%base
						if _, had := model[k]; tab.Delete(k) != had {
							t.Errorf("Delete(%d) = %v, want %v", k, !had, had)
							return
						}
						delete(model, k)
						switch err := tab.Upsert(k, i); err {
						case nil:
							model[k] = i
						case ErrFull:
						default:
							t.Errorf("Upsert(%d): %v", k, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			want := map[int]int{}
			for _, m := range models {
				for k, v := range m {
					want[k] = v
				}
			}
			for k, v := range want {
				if got, ok := tab.Get(k); !ok || got != v {
					t.Errorf("Get(%d) = %d, %v; acknowledged %d", k, got, ok, v)
				}
			}
			st := tab.Stats()
			t.Logf("load %.3f, %d searches, %d displacements, %d path restarts",
				tab.LoadFactor(), st.Searches, st.Displacements, st.PathRestarts)
			if lf := tab.LoadFactor(); lf < 0.9 || st.Displacements == 0 {
				t.Errorf("the storm ended at load %.3f after %d displacements; want >= 0.9 and some", lf, st.Displacements)
			}
			checkSlots(t, tab)
		})
	}
}
