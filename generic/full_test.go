package generic

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// cappedTable returns a table that is already at its MaxCapacity, so a
// failed search ends in ErrFull and never in a grow, and no grow starts a
// background sweeper: a test that forces a grow (forceGrow) drains it
// itself, and no drain's search can still be running, and counted, once
// the drain is done.
func cappedTable(t *testing.T, slots uint64) *Table[int, int] {
	t.Helper()
	tab, err := New[int, int](Config{InitialCapacity: slots, MaxCapacity: slots})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// fillToFull inserts ascending keys from next until the first ErrFull and
// returns the first key it did not insert.
func fillToFull(t *testing.T, tab *Table[int, int], next int) int {
	t.Helper()
	for ; ; next++ {
		switch err := tab.Upsert(next, next); err {
		case nil:
		case ErrFull:
			return next
		default:
			t.Fatalf("Upsert(%d): %v", next, err)
		}
	}
}

// occupied reports whether slot i of arr holds an entry: the one place the
// tests read the arrays' occupancy. Single-goroutine tests only: it reads
// without the stripes.
func occupied[K comparable, V any](arr *tArrays[K, V], i uint64) bool {
	return slotTag(arr, i) != 0
}

// slotWords returns the tag words of the bucket holding slot i of arr, and
// the slot's index in that bucket.
func slotWords[K comparable, V any](arr *tArrays[K, V], i uint64) ([]uint32, int) {
	assoc, words := uint64(len(arr.vals))/arr.buckets, uint64(len(arr.tags))/arr.buckets
	return arr.tags[i/assoc*words : (i/assoc+1)*words], int(i % assoc)
}

// slotTag returns slot i's tag. Single-goroutine tests only.
func slotTag[K comparable, V any](arr *tArrays[K, V], i uint64) uint8 {
	return tagIn(slotWords(arr, i))
}

// setSlotTag overwrites slot i's tag and nothing else, as a fault would.
// Single-goroutine tests only.
func setSlotTag[K comparable, V any](arr *tArrays[K, V], i uint64, tag uint8) {
	ws, s := slotWords(arr, i)
	setTag(ws, s, tag)
}

// pairFull reports whether both of key's live candidate buckets are full.
func pairFull[K comparable, V any](tab *Table[K, V], key K) bool {
	live := tab.loadState().live
	b1, b2 := twoBuckets(tab.hash(key), live.buckets)
	for _, b := range [2]uint64{b1, b2} {
		for s := uint64(0); s < tab.assoc; s++ {
			if !occupied(live, b*tab.assoc+s) {
				return false
			}
		}
	}
	return true
}

// nextFullPair returns the first key at or after next that is absent
// (ascending keys: everything from next on is) and whose candidate pair
// is full, so that inserting it needs a search.
func nextFullPair(t *testing.T, tab *Table[int, int], next int) int {
	t.Helper()
	for end := next + 1<<20; next < end; next++ {
		if pairFull(tab, next) {
			return next
		}
	}
	t.Fatal("no key with a full candidate pair")
	return 0
}

// TestSearchMark pins ErrFull's documented behaviour: one search that
// runs out of budget is not repeated while the table stays as full, a
// delete re-arms it, and an overwrite never asks. Displacement fills past
// 0.95 in the median of five fresh tables: the mark is 0 until a search
// fails, so the first ErrFull always follows a search that spent its whole
// budget, and at 4 096 slots where that happens is a statistical property
// of the scheme — of 20 000 fills the first refusal came at load 0.9478 at
// the lowest, below 0.95 in 4 and at 0.9702 in the median.
func TestSearchMark(t *testing.T) {
	var tab *Table[int, int]
	var next int
	lfs := make([]float64, 5)
	for i := range lfs {
		tab = cappedTable(t, 4096)
		next = fillToFull(t, tab, 0)
		lfs[i] = tab.LoadFactor()
	}
	if slices.Sort(lfs); lfs[2] < 0.95 {
		t.Fatalf("first ErrFull at load factors %.3f: displacement should fill past 0.95 in the median", lfs)
	}
	mark, searches := tab.Len(), tab.Stats().Searches

	// New keys: refused (or placed in a free slot of their own pair)
	// without a single further search.
	for i := 0; i < 1000; i++ {
		if err := tab.Upsert(next, next); err != nil && err != ErrFull {
			t.Fatalf("Upsert(%d): %v", next, err)
		}
		next++
	}
	// Resident keys: overwritten in place, whatever the mark says.
	for k := 0; k < 1000; k++ {
		if _, ok := tab.Get(k); !ok {
			continue
		}
		if err := tab.Upsert(k, -k); err != nil {
			t.Fatalf("overwrite of resident key %d on a full table: %v", k, err)
		}
	}
	if got := tab.Stats().Searches; got != searches {
		t.Fatalf("%d searches on a table that just proved full, want 0", got-searches)
	}

	// Deleting below the mark re-arms the search, and with this much room
	// the search succeeds.
	for k := 0; tab.Len()+64 > mark; k++ {
		tab.Delete(k)
	}
	k := nextFullPair(t, tab, next)
	if err := tab.Upsert(k, k); err != nil {
		t.Fatalf("Upsert(%d) with 64 slots freed: %v", k, err)
	}
	if got := tab.Stats().Searches; got != searches+1 {
		t.Fatalf("Searches = %d after a full-pair insert below the mark, want %d", got, searches+1)
	}
	checkSlots(t, tab)
}

// TestSearchMarkForgotten: Clear and a grow both forget the mark, so the
// table fills again to where it filled the first time.
func TestSearchMarkForgotten(t *testing.T) {
	tab := cappedTable(t, 1024)
	next := fillToFull(t, tab, 0)
	first := tab.Len()
	if tab.loadState().live.fullAt.Load() == 0 {
		t.Fatal("no mark after a failed search")
	}

	tab.Clear()
	if got := tab.loadState().live.fullAt.Load(); got != 0 {
		t.Fatalf("mark = %d after Clear, want 0", got)
	}
	next = fillToFull(t, tab, next)
	if got := tab.Len(); got*10 < first*9 {
		t.Fatalf("refill after Clear stopped at %d keys, the first fill at %d", got, first)
	}

	// MaxCapacity forbids a put-driven grow; force one, as a drain
	// escalation would.
	forceGrow(tab)
	for tab.Growing() {
		tab.migrateBatch(64)
	}
	if got := tab.loadState().live.fullAt.Load(); got != 0 {
		t.Fatalf("mark = %d after a grow, want 0", got)
	}
	searches := tab.Stats().Searches
	k := nextFullPair(t, tab, next)
	if err := tab.Upsert(k, k); err != nil {
		t.Fatalf("Upsert(%d) into a grown table: %v", k, err)
	}
	if got := tab.Stats().Searches; got != searches+1 {
		t.Fatalf("Searches = %d after a full-pair insert into a grown table, want %d", got, searches+1)
	}
}

// TestOldest checks the victim choice against the buckets themselves.
func TestOldest(t *testing.T) {
	tab := cappedTable(t, 256)
	next := fillToFull(t, tab, 0)
	less := func(a, b int) bool { return a < b }
	for n := 0; n < 100; n, next = n+1, next+1 {
		live := tab.loadState().live
		b1, b2 := twoBuckets(tab.hash(next), live.buckets)
		want, found := 0, false
		for _, b := range [2]uint64{b1, b2} {
			for s := uint64(0); s < tab.assoc; s++ {
				if !occupied(live, b*tab.assoc+s) {
					continue
				}
				if v := live.vals[b*tab.assoc+s]; !found || v < want {
					want, found = v, true
				}
			}
		}
		got, val, ok := tab.Oldest(next, less)
		if ok != found || got != want || val != want { // values are the keys
			t.Fatalf("Oldest(%d) = %d, %d, %v; buckets %d and %d hold %d, %v", next, got, val, ok, b1, b2, want, found)
		}
	}

	// The key itself is never its own victim, even when it ranks first.
	resident := 0
	for ; ; resident++ {
		if _, ok := tab.Get(resident); ok {
			break
		}
	}
	if err := tab.Upsert(resident, -1); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := tab.Oldest(resident, less); ok && got == resident {
		t.Fatalf("Oldest(%d) chose the key itself", resident)
	}

	empty := cappedTable(t, 256)
	if got, _, ok := empty.Oldest(1, less); ok {
		t.Fatalf("Oldest on an empty table = %d, true", got)
	}
}

// TestSearchAllocatesNothing: a path search reads the tag words where they
// lie, with no stripe held, and takes its queue and path from a pooled
// scratch, so a search that ends one hop away, one that ends further out and
// one that spends the whole budget and fails all allocate nothing and take
// no lock, at either bucket width.
func TestSearchAllocatesNothing(t *testing.T) {
	for _, assoc := range []int{4, 8} {
		t.Run(fmt.Sprintf("B%d", assoc), func(t *testing.T) {
			tab, err := New[string, int](Config{InitialCapacity: 4096, MaxCapacity: 4096, Associativity: assoc})
			if err != nil {
				t.Fatal(err)
			}
			sc := searchScratches.Get().(*searchScratch)
			defer searchScratches.Put(sc)
			// TotalAlloc is the whole process's, and earlier tests' sweepers
			// may still be winding down (a drain's own search can take a
			// fresh scratch from the pool): a search's own share is the
			// least of a few repeats (it changes nothing, so it repeats
			// exactly), made at one P, as testing.AllocsPerRun does, so
			// that no other goroutine runs beside it.
			measured := map[string]bool{}
			measure := func(class string, st *genState[string, int], b1, b2 uint64) {
				if measured[class] {
					return
				}
				measured[class] = true
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				least := ^uint64(0)
				var m0, m1 runtime.MemStats
				locks := tab.LockStats().Acquisitions
				for range 5 {
					runtime.ReadMemStats(&m0)
					tab.search(st, sc, b1, b2)
					runtime.ReadMemStats(&m1)
					least = min(least, m1.TotalAlloc-m0.TotalAlloc)
				}
				if least != 0 {
					t.Errorf("a %s search allocated %d B, want 0", class, least)
				}
				if n := tab.LockStats().Acquisitions - locks; n != 0 {
					t.Errorf("5 %s searches took %d stripes, want 0", class, n)
				}
			}
			for i := 0; ; i++ {
				k := fmt.Sprintf("key-%05d", i)
				if pairFull(tab, k) {
					st := tab.loadState()
					b1, b2 := twoBuckets(tab.hash(k), st.live.buckets)
					switch path, ok := tab.search(st, sc, b1, b2); {
					case !ok:
						measure("failed", st, b1, b2)
					case len(path) == 2:
						measure("one-hop", st, b1, b2)
					default:
						measure("multi-hop", st, b1, b2)
					}
				}
				if err := tab.Insert(k, i); err == ErrFull {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			for _, class := range []string{"one-hop", "multi-hop", "failed"} {
				if !measured[class] {
					t.Errorf("the fill made no %s search", class)
				}
			}
		})
	}
}
