package generic

import (
	"errors"
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
		tab.MigrateBatch(64)
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
		tab.MigrateBatch(64)
	}
	checkSlots(t, tab)
}
