package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cuckoohash/internal/workload"
)

func testOptions(slots uint64) Options {
	o := Defaults(slots)
	o.Seed = 42
	return o
}

func TestInsertLookupBasic(t *testing.T) {
	for _, locking := range []LockMode{LockStriped, LockGlobal, LockEarly} {
		o := testOptions(1 << 10)
		o.Locking = locking
		tab := MustNewTable(o)
		for k := uint64(1); k <= 500; k++ {
			if err := tab.Insert(k, k*10); err != nil {
				t.Fatalf("locking=%v: Insert(%d): %v", locking, k, err)
			}
		}
		if got := tab.Len(); got != 500 {
			t.Fatalf("locking=%v: Len = %d, want 500", locking, got)
		}
		for k := uint64(1); k <= 500; k++ {
			v, ok := tab.Lookup(k)
			if !ok || v != k*10 {
				t.Fatalf("locking=%v: Lookup(%d) = %d,%v; want %d,true", locking, k, v, ok, k*10)
			}
		}
		if _, ok := tab.Lookup(9999); ok {
			t.Fatalf("locking=%v: Lookup(absent) reported found", locking)
		}
		if !tab.Delete(1) || tab.Delete(1) || tab.Len() != 499 {
			t.Fatalf("locking=%v: Delete semantics or Len wrong", locking)
		}
		// Grow, Range's early stop and Clear, in every locking mode.
		if err := tab.Grow(); err != nil || tab.Cap() != 2<<10 || tab.Len() != 499 {
			t.Fatalf("locking=%v: Grow = %v: Cap %d, Len %d", locking, err, tab.Cap(), tab.Len())
		}
		visited := 0
		tab.Range(func(uint64, []uint64) bool {
			visited++
			return visited < 10
		})
		if visited != 10 {
			t.Fatalf("locking=%v: Range visited %d entries after fn said stop at 10", locking, visited)
		}
		tab.Clear()
		if tab.Len() != 0 || tab.Contains(2) {
			t.Fatalf("locking=%v: after Clear: Len %d", locking, tab.Len())
		}
	}
}

func TestInsertDuplicate(t *testing.T) {
	tab := MustNewTable(testOptions(1 << 8))
	if err := tab.Insert(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(7, 2); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Insert err = %v, want ErrExists", err)
	}
	if v, _ := tab.Lookup(7); v != 1 {
		t.Fatalf("value clobbered by failed duplicate insert: %d", v)
	}
	if err := tab.Upsert(7, 3); err != nil {
		t.Fatal(err)
	}
	if v, _ := tab.Lookup(7); v != 3 {
		t.Fatalf("Upsert did not overwrite: %d", v)
	}
}

func TestUpdateDelete(t *testing.T) {
	tab := MustNewTable(testOptions(1 << 8))
	if tab.Update(5, 1) {
		t.Fatal("Update of absent key succeeded")
	}
	if err := tab.Insert(5, 1); err != nil {
		t.Fatal(err)
	}
	if !tab.Update(5, 2) {
		t.Fatal("Update of present key failed")
	}
	if v, _ := tab.Lookup(5); v != 2 {
		t.Fatalf("Update value = %d, want 2", v)
	}
	if !tab.Delete(5) {
		t.Fatal("Delete of present key failed")
	}
	if tab.Delete(5) {
		t.Fatal("Delete of absent key succeeded")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len after delete = %d", tab.Len())
	}
}

// TestFillTo95 verifies the paper's occupancy claim: with 8-way buckets the
// table fills past 95% before returning ErrFull, with either search and
// with the prefetches off, and every accepted key reads back.
func TestFillTo95(t *testing.T) {
	for _, c := range []struct {
		name     string
		search   SearchMode
		prefetch bool
	}{
		{"BFS", SearchBFS, true},
		{"DFS", SearchDFS, true},
		{"BFS no prefetch", SearchBFS, false},
	} {
		o := testOptions(1 << 14)
		o.Search, o.Prefetch = c.search, c.prefetch
		tab := MustNewTable(o)
		gen := workload.NewSequentialKeys(1)
		var keys []uint64
		for {
			k := gen.NextKey()
			if err := tab.Insert(k, k^1); err != nil {
				break
			}
			keys = append(keys, k)
		}
		lf := float64(len(keys)) / float64(tab.Cap())
		if lf < 0.95 {
			t.Fatalf("%s: table full at load factor %.3f, want >= 0.95", c.name, lf)
		}
		for _, k := range keys {
			if v, ok := tab.Lookup(k); !ok || v != k^1 {
				t.Fatalf("%s: Lookup(%d) = %d,%v", c.name, k, v, ok)
			}
		}
	}
}

// TestConcurrentMixedOracle drives concurrent writers on disjoint keyspaces
// plus concurrent readers, then verifies contents against a per-thread
// oracle.
func TestConcurrentMixedOracle(t *testing.T) {
	const threads = 8
	const opsPerThread = 20000
	for _, locking := range []LockMode{LockStriped, LockGlobal, LockEarly} {
		o := testOptions(1 << 16)
		o.Locking = locking
		tab := MustNewTable(o)

		oracles := make([]map[uint64]uint64, threads)
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				oracle := make(map[uint64]uint64)
				oracles[th] = oracle
				rnd := workload.NewRand(uint64(th) + 1)
				base := uint64(th) << 32
				for i := 0; i < opsPerThread; i++ {
					k := base | rnd.Intn(4096)
					switch rnd.Intn(10) {
					case 0, 1, 2, 3, 4: // upsert
						v := rnd.Next()
						if err := tab.Upsert(k, v); err != nil {
							t.Errorf("Upsert: %v", err)
							return
						}
						oracle[k] = v
					case 5: // delete
						got := tab.Delete(k)
						_, want := oracle[k]
						if got != want {
							t.Errorf("Delete(%d) = %v, oracle %v", k, got, want)
							return
						}
						delete(oracle, k)
					default: // lookup own keys
						v, ok := tab.Lookup(k)
						wv, wok := oracle[k]
						if ok != wok || (ok && v != wv) {
							t.Errorf("Lookup(%d) = %d,%v, oracle %d,%v", k, v, ok, wv, wok)
							return
						}
					}
				}
			}(th)
		}
		// Cross-thread readers exercising the optimistic path under churn.
		stop := make(chan struct{})
		var rwg sync.WaitGroup
		for r := 0; r < 2; r++ {
			rwg.Add(1)
			go func(r int) {
				defer rwg.Done()
				rnd := workload.NewRand(uint64(r) + 100)
				for {
					select {
					case <-stop:
						return
					default:
					}
					th := rnd.Intn(threads)
					k := th<<32 | rnd.Intn(4096)
					tab.Lookup(k) // result unverifiable; must not hang or panic
				}
			}(r)
		}
		wg.Wait()
		close(stop)
		rwg.Wait()
		if t.Failed() {
			t.Fatalf("locking=%v failed", locking)
		}

		var want uint64
		for th := 0; th < threads; th++ {
			want += uint64(len(oracles[th]))
			for k, v := range oracles[th] {
				got, ok := tab.Lookup(k)
				if !ok || got != v {
					t.Fatalf("locking=%v: final Lookup(%d) = %d,%v, want %d,true", locking, k, got, ok, v)
				}
			}
		}
		if got := tab.Len(); got != want {
			t.Fatalf("locking=%v: Len = %d, want %d", locking, got, want)
		}
	}
}

func TestGrow(t *testing.T) {
	o := testOptions(1 << 8)
	tab := MustNewTable(o)
	for k := uint64(0); k < 200; k++ {
		if err := tab.Insert(k+1, k); err != nil {
			t.Fatalf("Insert(%d): %v", k+1, err)
		}
	}
	capBefore := tab.Cap()
	if err := tab.Grow(); err != nil {
		t.Fatal(err)
	}
	if tab.Cap() != 2*capBefore {
		t.Fatalf("Cap after grow = %d, want %d", tab.Cap(), 2*capBefore)
	}
	if tab.Len() != 200 {
		t.Fatalf("Len after grow = %d, want 200", tab.Len())
	}
	for k := uint64(0); k < 200; k++ {
		if v, ok := tab.Lookup(k + 1); !ok || v != k {
			t.Fatalf("after grow Lookup(%d) = %d,%v", k+1, v, ok)
		}
	}
}

func TestGrowUnderConcurrency(t *testing.T) {
	o := testOptions(1 << 10)
	tab := MustNewTable(o)
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) << 32
			for i := uint64(0); i < 2000; i++ {
				for {
					err := tab.Upsert(base|i, i)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrFull) {
						t.Errorf("Upsert: %v", err)
						return
					}
					// React to a full table the way a client would.
					if err := tab.Grow(); err != nil {
						t.Errorf("Grow: %v", err)
						return
					}
				}
				if v, ok := tab.Lookup(base | i); !ok || v != i {
					t.Errorf("Lookup(just inserted %d) = %d,%v", base|i, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := tab.Grow(); err != nil {
				t.Errorf("Grow: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := tab.Len(); got != writers*2000 {
		t.Fatalf("Len = %d, want %d", got, writers*2000)
	}
}

func TestRange(t *testing.T) {
	tab := MustNewTable(testOptions(1 << 8))
	want := map[uint64]uint64{}
	for k := uint64(1); k <= 100; k++ {
		want[k] = k * 3
		if err := tab.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	got := map[uint64]uint64{}
	tab.Range(func(k uint64, v []uint64) bool {
		got[k] = v[0]
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestMultiWordValues(t *testing.T) {
	o := testOptions(1 << 8)
	o.ValueWords = 4
	tab := MustNewTable(o)
	val := []uint64{1, 2, 3, 4}
	if err := tab.InsertValue(99, val); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 4)
	if !tab.LookupValue(99, dst) {
		t.Fatal("LookupValue missed")
	}
	for i := range val {
		if dst[i] != val[i] {
			t.Fatalf("value word %d = %d, want %d", i, dst[i], val[i])
		}
	}
}

func TestErrFull(t *testing.T) {
	o := testOptions(64)
	tab := MustNewTable(o)
	var err error
	for k := uint64(1); ; k++ {
		if err = tab.Insert(k, k); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	// A duplicate insert into a full table must say ErrExists, not ErrFull.
	if err := tab.Insert(1, 9); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate into full table: %v, want ErrExists", err)
	}
	// Upsert of an existing key must still succeed on a full table.
	if err := tab.Upsert(1, 9); err != nil {
		t.Fatalf("Upsert into full table: %v", err)
	}
	if v, _ := tab.Lookup(1); v != 9 {
		t.Fatalf("Upsert value = %d", v)
	}
}

func TestAssociativityVariants(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8, 16, 32} {
		t.Run(fmt.Sprintf("assoc=%d", assoc), func(t *testing.T) {
			o := testOptions(1 << 10)
			o.Assoc = assoc
			o.Buckets = (1 << 10) / uint64(assoc)
			tab := MustNewTable(o)
			n := tab.Cap() / 2
			for k := uint64(1); k <= n; k++ {
				if err := tab.Insert(k, k); err != nil {
					t.Fatalf("Insert(%d) at assoc %d: %v", k, assoc, err)
				}
			}
			for k := uint64(1); k <= n; k++ {
				if v, ok := tab.Lookup(k); !ok || v != k {
					t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
				}
			}
		})
	}
}

// TestGlobalLockOwnsItsLine pins the padding around Table.global: whatever
// 64-byte line the lock word falls on, wherever the allocator puts the
// Table, no other field and no neighbouring object shares it. On the line
// of arr, which every lookup and write loads, each acquisition cost the
// global-lock modes 10-25 % of Figure 5b's concurrent insert throughput.
func TestGlobalLockOwnsItsLine(t *testing.T) {
	const line = 64
	typ := reflect.TypeOf(Table{})
	g, ok := typ.FieldByName("global")
	if !ok {
		t.Fatal("Table has no field global")
	}
	lo := int(g.Offset) + int(g.Type.Size()) - line // earliest byte on its line
	hi := int(g.Offset) + line                      // first byte past its line
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Name == "global" || f.Name == "_" || f.Type.Size() == 0 {
			continue
		}
		if start, end := int(f.Offset), int(f.Offset+f.Type.Size()); end > lo && start < hi {
			t.Errorf("field %s (bytes %d-%d) can share the line of global (offset %d)", f.Name, start, end, g.Offset)
		}
	}
	if lo < 0 || int(typ.Size()) < hi {
		t.Errorf("Table (%d bytes) leaves global (offset %d) a line another object can share", typ.Size(), g.Offset)
	}
}
