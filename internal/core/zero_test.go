package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestZeroKey drives key 0, which a bucket cannot hold (a zero key word is
// an empty slot), through every operation: it lives in its own slot and must
// behave exactly like any other key, across a Grow too.
func TestZeroKey(t *testing.T) {
	for _, vw := range []int{1, 3} {
		o := testOptions(1 << 10)
		o.ValueWords = vw
		tab := MustNewTable(o)
		val := func(x uint64) []uint64 {
			v := make([]uint64, vw)
			for w := range v {
				v[w] = x + uint64(w)
			}
			return v
		}
		expect := func(what string, x uint64, present bool) {
			t.Helper()
			dst := make([]uint64, vw)
			if ok := tab.LookupValue(0, dst); ok != present {
				t.Fatalf("vw %d %s: LookupValue found=%v want %v", vw, what, ok, present)
			}
			if got, ok := tab.Lookup(0); ok != present || (present && (got != x || dst[0] != x || dst[vw-1] != x+uint64(vw-1))) {
				t.Fatalf("vw %d %s: Lookup = %d,%v dst %v, want %d,%v", vw, what, got, ok, dst, x, present)
			}
			keys := []uint64{5, 0, 6}
			vals, found := make([]uint64, 3), make([]bool, 3)
			tab.LookupBatch(keys, vals, found)
			if found[1] != present || (present && vals[1] != x) {
				t.Fatalf("vw %d %s: LookupBatch = %d,%v want %d,%v", vw, what, vals[1], found[1], x, present)
			}
		}

		expect("empty", 0, false)
		if tab.Update(0, 1) || tab.Delete(0) {
			t.Fatalf("vw %d: Update/Delete of an absent key 0 reported presence", vw)
		}
		if err := tab.InsertValue(0, val(10)); err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(0, 11); err != ErrExists {
			t.Fatalf("vw %d: second Insert(0) = %v, want ErrExists", vw, err)
		}
		expect("inserted", 10, true)
		if err := tab.UpsertValue(0, val(20)); err != nil {
			t.Fatal(err)
		}
		expect("upserted", 20, true)
		if !tab.Update(0, 30) {
			t.Fatalf("vw %d: Update(0) missed", vw)
		}
		if dst := make([]uint64, vw); !tab.LookupValue(0, dst) || dst[0] != 30 || (vw > 1 && dst[1] != 0) {
			t.Fatalf("vw %d: after Update(0, 30) value %v", vw, dst)
		}
		if err := tab.UpsertValue(0, val(40)); err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 100; k++ {
			if err := tab.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if tab.Len() != 101 {
			t.Fatalf("vw %d: Len = %d, want 101", vw, tab.Len())
		}
		if err := tab.Grow(); err != nil {
			t.Fatal(err)
		}
		expect("grown", 40, true)
		checkInvariants(t, tab)

		seen := map[uint64]uint64{}
		tab.Range(func(k uint64, v []uint64) bool { seen[k] = v[0]; return true })
		if len(seen) != 101 || seen[0] != 40 {
			t.Fatalf("vw %d: Range saw %d keys, key 0 = %d", vw, len(seen), seen[0])
		}
		if !tab.Delete(0) || tab.Delete(0) {
			t.Fatalf("vw %d: Delete(0) twice did not report true then false", vw)
		}
		expect("deleted", 0, false)
		if tab.Len() != 100 {
			t.Fatalf("vw %d: Len = %d after Delete(0), want 100", vw, tab.Len())
		}
		if err := tab.Upsert(0, 50); err != nil {
			t.Fatal(err)
		}
		tab.Clear()
		expect("cleared", 0, false)
		if tab.Len() != 0 {
			t.Fatalf("vw %d: Len = %d after Clear", vw, tab.Len())
		}
		checkInvariants(t, tab)
	}
}

// TestZeroKeyConcurrent toggles key 0 through insert, upsert and delete
// while two readers look it up. Each value carries its sequence number in
// every word: a reader that sees unequal words read a torn value, and one
// that sees an older value than the writer had acknowledged before the read
// began, or misses a key that was present throughout, lost one.
func TestZeroKeyConcurrent(t *testing.T) {
	const vw, ops = 3, 20000
	o := testOptions(1 << 10)
	o.ValueWords = vw
	tab := MustNewTable(o)
	var begun atomic.Uint64 // sequence number of the last operation started
	var state atomic.Uint64 // sequence number of the last one acknowledged <<1 | present
	done := make(chan struct{})

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]uint64, vw)
			for {
				select {
				case <-done:
					return
				default:
				}
				before := state.Load()
				found := tab.LookupValue(0, dst)
				last := begun.Load()  // no later operation overlapped the read
				oldest := before >> 1 // the oldest value this read may return
				if before&1 == 0 {
					oldest++ // deleted at before>>1: only a later insert counts
				}
				switch {
				case !found && before&1 == 1 && last == before>>1:
					t.Errorf("key 0 missing while present (state %d)", before>>1)
					return
				case found && (dst[1] != dst[0] || dst[2] != dst[0]):
					t.Errorf("torn value %v", dst)
					return
				case found && dst[0] < oldest:
					t.Errorf("stale value %d after state %d was acknowledged", dst[0], before>>1)
					return
				case found && dst[0] > last:
					t.Errorf("value %d from the future (last begun %d)", dst[0], last)
					return
				}
			}
		}()
	}

	for n := uint64(1); n <= ops; n++ {
		v := []uint64{n, n, n}
		present := uint64(1)
		begun.Store(n)
		switch n % 3 {
		case 0:
			if err := tab.InsertValue(0, v); err != nil {
				t.Fatalf("Insert(0): %v", err)
			}
		case 1:
			if err := tab.UpsertValue(0, v); err != nil {
				t.Fatalf("Upsert(0): %v", err)
			}
		case 2:
			if !tab.Delete(0) {
				t.Fatal("Delete(0) missed")
			}
			present = 0
		}
		state.Store(n<<1 | present)
	}
	close(done)
	wg.Wait()
	checkInvariants(t, tab)
}
