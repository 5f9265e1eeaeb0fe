package generic

import (
	"runtime"
	"testing"
)

// TestSectionUpdates holds keys of every generation of a three-generation
// table, and one absent key, in one Section: each reads as Update finds
// it, a store over a draining generation's key folds it forward into the
// live one, the absent key is inserted, a removal clears, and the table
// holds together afterwards.
func TestSectionUpdates(t *testing.T) {
	eachConstruction(t, Config{InitialCapacity: 64}, func(t *testing.T, tab *Table[string, rec]) {
		threeGenerations(t, tab)
		keys := []string{"resident-0-0", "resident-1-1", "resident-2-2", "absent"}
		n := tab.Len()
		tab.Section(keys, func(sec Section[string, rec]) {
			for i, k := range keys {
				sec.Update(k, func(cur rec, found bool) (rec, Action) {
					if found != (i < 3) || found && cur.key != k {
						t.Errorf("%s read as %+v, %v", k, cur, found)
					}
					return cur, Keep
				})
			}
			for _, k := range keys[:2] {
				if act, ok := sec.Update(k, func(rec, bool) (rec, Action) { return rec{key: k, n: 100}, Store }); act != Store || !ok {
					t.Errorf("store of %s: %v, %v", k, act, ok)
				}
			}
			if act, ok := sec.Update("absent", func(rec, bool) (rec, Action) { return rec{key: "absent", n: 7}, Store }); act != Store || !ok {
				t.Errorf("insert: %v, %v", act, ok)
			}
			if act, _ := sec.Update(keys[2], func(v rec, _ bool) (rec, Action) { return v, Remove }); act != Remove {
				t.Errorf("removal of %s applied %v", keys[2], act)
			}
		})
		for _, k := range keys[:2] {
			if v, ok := tab.Get(k); !ok || v.n != 100 || inOldGen(tab, k) {
				t.Errorf("%s = %+v, %v, in a draining generation %v; want the stored value, live", k, v, ok, inOldGen(tab, k))
			}
		}
		if _, ok := tab.Get(keys[2]); ok {
			t.Errorf("%s survived its removal", keys[2])
		}
		if v, ok := tab.Get("absent"); !ok || v.n != 7 {
			t.Errorf("inserted key = %+v, %v", v, ok)
		}
		if got := tab.Len(); got != n {
			t.Errorf("Len = %d after one insert and one removal, want %d", got, n)
		}
		checkSlots(t, tab)
	})
}

// TestSectionStoreNeedsRoom: a section never searches, so a store of a
// key whose live buckets are full fails and changes nothing; MakeRoom,
// run with the section released, shifts a path so the store lands, and
// reports ErrFull once a table that may not grow has no path left.
func TestSectionStoreNeedsRoom(t *testing.T) {
	tab := cappedTable(t, 1024)
	for i := range 900 {
		if err := tab.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	store := func(key int) (ok bool) {
		tab.Section([]int{key}, func(sec Section[int, int]) {
			_, ok = sec.Update(key, func(int, bool) (int, Action) { return key, Store })
		})
		return ok
	}
	key := nextFullPair(t, tab, 900)
	if store(key) || tab.Len() != 900 {
		t.Fatalf("store of %d into a full pair landed: Len %d", key, tab.Len())
	}
	if err := tab.MakeRoom(key); err != nil {
		t.Fatalf("MakeRoom(%d) at load 0.88: %v", key, err)
	}
	if !store(key) || tab.Len() != 901 {
		t.Fatalf("store of %d after MakeRoom: Len %d", key, tab.Len())
	}
	full := fillToFull(t, tab, key+1)
	if err := tab.MakeRoom(full); err != ErrFull {
		t.Fatalf("MakeRoom(%d) in a full table that may not grow = %v, want ErrFull", full, err)
	}
	checkSlots(t, tab)
}

// TestUpdateThenRunsOnceUnderPin: then runs once per Update, after the
// decision is applied and before the pin is released, with what was
// applied — also when decide ran twice around a path search — and reports
// whether the pin had to wait for a stripe another held.
func TestUpdateThenRunsOnceUnderPin(t *testing.T) {
	tab := cappedTable(t, 1024)
	for i := range 900 {
		if err := tab.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	key := nextFullPair(t, tab, 900)
	decided, thens := 0, 0
	act, err := tab.UpdateThen(key, func(int, bool) (int, Action) {
		decided++
		return 1, Store
	}, func(v int, act Action, waited bool) {
		thens++
		if v != 1 || act != Store || waited {
			t.Errorf("then(%d, %v, %v); want the stored value, Store, no wait", v, act, waited)
		}
	})
	if err != nil || act != Store || thens != 1 || decided != 2 {
		t.Fatalf("UpdateThen = %v, %v with then run %d times and decide %d; want Store, nil, once after two decisions around the search", act, err, thens, decided)
	}
	// A section holding key makes the next Update wait, and say so.
	waited := make(chan bool)
	tab.Section([]int{key}, func(Section[int, int]) {
		go func() {
			tab.UpdateThen(key, func(v int, _ bool) (int, Action) { return v, Keep }, func(_ int, _ Action, w bool) { waited <- w })
		}()
		for tab.LockStats().Contended == 0 {
			runtime.Gosched()
		}
	})
	if !<-waited {
		t.Fatal("an Update that waited for a held stripe reported no wait")
	}
}
