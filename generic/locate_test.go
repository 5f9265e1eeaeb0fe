package generic

import (
	"errors"
	"fmt"
	"testing"

	"cuckoohash/internal/spinlock"
)

// tryPut is Insert (overwrite false) or Upsert through tryUpdate, which
// neither grows nor drains.
func (t *Table[K, V]) tryPut(key K, val V, overwrite bool) error {
	act, err := t.tryUpdate(t.hash(key), key, func(_ V, found bool) (V, Action) {
		if found && !overwrite {
			return val, Keep
		}
		return val, Store
	}, nil)
	if err == nil && act == Keep {
		return ErrExists
	}
	return err
}

// withStripes gives a table nothing has used yet a stripe table of n
// stripes in place of the one its capacity sized.
func withStripes[K comparable, V any](tab *Table[K, V], n int) *Table[K, V] {
	tab.locks = spinlock.NewStripe(n)
	return tab
}

// forceGrow publishes a live generation half again as large whatever the
// load, as a put that found no room would, but starts no sweeper: the
// migration advances only through the writes and migrateBatch calls that
// follow.
func forceGrow[K comparable, V any](tab *Table[K, V]) {
	tab.growMu.Lock()
	tab.growLocked(true)
	tab.growMu.Unlock()
}

// writeGrowing runs write and, when it is refused by a table with
// DisableAutoGrow, grows the table where a put would have — but through
// forceGrow, so that no sweeper runs and only writes and migrateBatch calls
// drain the migration — and runs it again.
func writeGrowing[K comparable, V any](tab *Table[K, V], write func() error) error {
	err := write()
	if errors.Is(err, ErrFull) && tab.cfg.DisableAutoGrow {
		forceGrow(tab)
		err = write()
	}
	return err
}

// threeGenerations leaves tab with two draining generations behind the
// live one and three keys resident in each — one fewer than fills a
// bucket, whatever the seed — nothing draining them: forceGrow starts no
// sweeper, and the keys go in through tryPut, which drains nothing.
func threeGenerations(t *testing.T, tab *Table[string, rec]) {
	t.Helper()
	for gen := 0; gen < 3; gen++ {
		if gen > 0 {
			forceGrow(tab)
		}
		for i := 0; i < 3; i++ {
			v := rec{key: fmt.Sprintf("resident-%d-%d", gen, i), n: i}
			if err := tab.tryPut(v.key, v, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := tab.loadState(); len(st.olds) != 2 || backlog(st) != 16+24 || st.live.buckets != 36 {
		t.Fatalf("%d draining generations, backlog %d, %d live buckets; want 2, all 40 buckets of 16 and 24, and 36",
			len(st.olds), backlog(st), st.live.buckets)
	}
}

// TestFoundWhereverItLives plants one key in each position locate has to
// cover — either candidate bucket of the live generation and of each of
// two draining ones — and requires every operation that looks a key up to
// see it there. Red when locate skips a generation or a bucket.
func TestFoundWhereverItLives(t *testing.T) {
	const key = "planted"
	was, now := rec{key: key, n: 1}, rec{key: key, n: 2}
	cfg := Config{InitialCapacity: 64}

	// gen -1 is the live generation, 0 and 1 the draining ones, oldest first.
	positions := []struct {
		name   string
		gen    int
		second bool // the key's second candidate bucket, not its first
	}{
		{"live-b1", -1, false}, {"live-b2", -1, true},
		{"oldest-b1", 0, false}, {"oldest-b2", 0, true},
		{"draining-b1", 1, false}, {"draining-b2", 1, true},
	}
	arrays := func(st *genState[string, rec], gen int) *tArrays[string, rec] {
		if gen < 0 {
			return st.live
		}
		return st.olds[gen].arr
	}
	// plant puts key into a free slot of its second or first candidate
	// bucket in generation gen, the way place's callers do, and returns
	// the slot's index.
	plant := func(t *testing.T, tab *Table[string, rec], gen int, second bool) uint64 {
		arr := arrays(tab.loadState(), gen)
		h := tab.hash(key)
		b, b2 := twoBuckets(h, arr.buckets)
		if second {
			b = b2
		}
		s, ok := tab.freeSlot(tab.bucketTags(arr, b))
		if !ok {
			t.Fatalf("bucket %d of generation %d is full", b, gen)
		}
		tab.place(arr, b, s, key, was, tagOf(h))
		tab.size.Add(b, 1)
		return b*tab.assoc + uint64(s)
	}

	ops := []struct {
		name string
		run  func(t *testing.T, tab *Table[string, rec], arr *tArrays[string, rec], i uint64)
	}{
		{"Get", func(t *testing.T, tab *Table[string, rec], _ *tArrays[string, rec], _ uint64) {
			if v, ok := tab.Get(key); !ok || v != was {
				t.Errorf("Get = %v, %v", v, ok)
			}
		}},
		{"GetBytes", func(t *testing.T, tab *Table[string, rec], _ *tArrays[string, rec], _ uint64) {
			if v, ok := GetBytes(tab, []byte(key)); !ok || v != was {
				t.Errorf("GetBytes = %v, %v", v, ok)
			}
		}},
		{"Insert", func(t *testing.T, tab *Table[string, rec], arr *tArrays[string, rec], i uint64) {
			n := tab.Len()
			if err := tab.Insert(key, now); err != ErrExists {
				t.Errorf("Insert = %v, want ErrExists", err)
			}
			// The refused Insert's drain may have moved the key on, so
			// look it up rather than at its slot.
			if v, ok := tab.Get(key); tab.Len() != n || !ok || v != was {
				t.Errorf("a refused Insert changed the table: Len %d -> %d, Get = %v, %v", n, tab.Len(), v, ok)
			}
		}},
		{"Upsert", func(t *testing.T, tab *Table[string, rec], arr *tArrays[string, rec], i uint64) {
			n := tab.Len()
			if err := tab.Upsert(key, now); err != nil {
				t.Fatalf("Upsert: %v", err)
			}
			if tab.Len() != n {
				t.Errorf("Len %d -> %d across an overwrite", n, tab.Len())
			}
			live, inLive := tab.loadState().live, false
			for j := range live.vals {
				inLive = inLive || live.vals[j] == now
			}
			if !inLive {
				t.Error("the new value is not in the live generation")
			}
			if arr != live && occupied(arr, i) {
				t.Error("the draining generation's slot was not cleared")
			}
			if v, ok := tab.Get(key); !ok || v != now {
				t.Errorf("Get after Upsert = %v, %v", v, ok)
			}
		}},
		{"Delete", func(t *testing.T, tab *Table[string, rec], arr *tArrays[string, rec], i uint64) {
			n := tab.Len()
			if !tab.Delete(key) {
				t.Fatal("Delete = false")
			}
			// The Delete's drain may move another key into the freed slot.
			if held := occupied(arr, i) && tab.keyAt(arr, i) == key; tab.Len() != n-1 || held {
				t.Errorf("Len %d -> %d, slot still holds the key = %v", n, tab.Len(), held)
			}
			if _, ok := tab.Get(key); ok {
				t.Error("Get finds the deleted key")
			}
			if tab.Delete(key) {
				t.Error("a second Delete = true")
			}
		}},
	}

	for _, pos := range positions {
		for _, op := range ops {
			t.Run(pos.name+"/"+op.name, func(t *testing.T) {
				eachConstruction(t, cfg, func(t *testing.T, tab *Table[string, rec]) {
					threeGenerations(t, tab)
					if _, ok := tab.Get(key); ok {
						t.Fatal("the key is there before it is planted")
					}
					i := plant(t, tab, pos.gen, pos.second)
					op.run(t, tab, arrays(tab.loadState(), pos.gen), i)
					checkSlots(t, tab)
				})
			})
		}
	}
}
