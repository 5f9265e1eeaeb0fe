package cuckoohash_test

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"cuckoohash"
	"cuckoohash/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	if _, err := cuckoohash.NewMap(cuckoohash.Config{}); err == nil {
		t.Fatal("zero Capacity accepted")
	}
	if _, err := cuckoohash.NewMap(cuckoohash.Config{Capacity: 1024, Associativity: 33}); err == nil {
		t.Fatal("Associativity 33 accepted")
	}
	if _, err := cuckoohash.NewMap(cuckoohash.Config{Capacity: 1024, LockStripes: 3}); err == nil {
		t.Fatal("non-power-of-two LockStripes accepted")
	}
	m, err := cuckoohash.NewMap(cuckoohash.Config{Capacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cap() < 1000 {
		t.Fatalf("Cap = %d < requested 1000", m.Cap())
	}
}

func TestPublicAPIBasics(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 1 << 12})
	if err := m.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(1, 200); !errors.Is(err, cuckoohash.ErrExists) {
		t.Fatalf("dup insert: %v", err)
	}
	if v, ok := m.Lookup(1); !ok || v != 100 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if !m.Contains(1) || m.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if err := m.Upsert(1, 300); err != nil {
		t.Fatal(err)
	}
	if !m.Update(1, 400) || m.Update(2, 0) {
		t.Fatal("Update semantics")
	}
	if v, _ := m.Lookup(1); v != 400 {
		t.Fatalf("after Update: %d", v)
	}
	if !m.Delete(1) || m.Delete(1) {
		t.Fatal("Delete semantics")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.MemoryFootprint() == 0 {
		t.Fatal("MemoryFootprint = 0")
	}
}

// TestMemoryFootprint pins what a Map costs per slot in live heap: a new
// 2^16-slot, 8-way Map is its 8-byte keys and values (a zero key word is the
// empty slot, so there is no occupancy array beside them), the default
// 4 096-word stripe table (0.5 B a slot at this size) and a few KB of
// counters. MemoryFootprint must report the same number. The smallest of
// three builds is taken, as what the rest of the test binary allocates
// meanwhile only ever adds to a delta.
func TestMemoryFootprint(t *testing.T) {
	const maxPerSlot = 16.75
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var m *cuckoohash.Map
	delta := uint64(math.MaxUint64)
	for range 3 {
		m = nil
		base := heap()
		m = cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 1 << 16, Associativity: 8})
		delta = min(delta, heap()-base)
	}
	perSlot := float64(delta) / float64(m.Cap())
	fp := m.MemoryFootprint()
	t.Logf("%d slots: %d B live heap (%.3f B/slot), MemoryFootprint %d B", m.Cap(), delta, perSlot, fp)
	if perSlot > maxPerSlot {
		t.Errorf("%.3f B/slot, want <= %.2f", perSlot, maxPerSlot)
	}
	if diff := math.Abs(float64(fp)-float64(delta)) / float64(delta); diff > 0.01 {
		t.Errorf("MemoryFootprint %d B is %.1f%% off the live heap delta %d B", fp, 100*diff, delta)
	}
	runtime.KeepAlive(m)
}

func TestPublicMultiWordValues(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 1 << 10, ValueWords: 3})
	if err := m.InsertValue(9, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 3)
	if !m.LookupValue(9, dst) || dst[2] != 3 {
		t.Fatalf("LookupValue = %v", dst)
	}
	if err := m.UpsertValue(9, []uint64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	m.LookupValue(9, dst)
	if dst[0] != 7 || dst[2] != 9 {
		t.Fatalf("after UpsertValue: %v", dst)
	}
	// Short payloads zero-extend.
	if err := m.InsertValue(10, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	m.LookupValue(10, dst)
	if dst[0] != 5 || dst[1] != 0 || dst[2] != 0 {
		t.Fatalf("short payload: %v", dst)
	}
}

func TestGlobalLockMode(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{
		Capacity:    1 << 12,
		Concurrency: cuckoohash.GlobalLock,
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w+1) << 32
			for i := uint64(0); i < 800; i++ {
				if err := m.Insert(base|i, i); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if m.Len() != 3200 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestDFSAndNoPrefetchModes(t *testing.T) {
	for _, cfg := range []cuckoohash.Config{
		{Capacity: 1 << 12, Search: cuckoohash.DFS},
		{Capacity: 1 << 12, NoPrefetch: true},
		{Capacity: 1 << 12, Associativity: 4},
		{Capacity: 1 << 12, Associativity: 16},
	} {
		m := cuckoohash.MustNewMap(cfg)
		n := m.Cap() * 9 / 10
		for i := uint64(0); i < n; i++ {
			if err := m.Insert(i+1, i); err != nil {
				t.Fatalf("cfg %+v Insert(%d): %v", cfg, i+1, err)
			}
		}
		for i := uint64(0); i < n; i++ {
			if v, ok := m.Lookup(i + 1); !ok || v != i {
				t.Fatalf("cfg %+v Lookup(%d) = %d,%v", cfg, i+1, v, ok)
			}
		}
	}
}

func TestElidedMapAllPolicies(t *testing.T) {
	for _, p := range []cuckoohash.ElisionPolicy{
		cuckoohash.ElisionTuned, cuckoohash.ElisionGlibc, cuckoohash.ElisionNone,
	} {
		m := cuckoohash.MustNewElidedMap(cuckoohash.Config{Capacity: 1 << 12}, p)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := uint64(w+1) << 32
				for i := uint64(0); i < 500; i++ {
					if err := m.Insert(base|i, i); err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
					if v, ok := m.Lookup(base | i); !ok || v != i {
						t.Errorf("Lookup(%d) = %d,%v", base|i, v, ok)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if m.Len() != 2000 {
			t.Fatalf("policy %v: Len = %d", p, m.Len())
		}
		ts := m.TxStats()
		if p == cuckoohash.ElisionNone && ts.Commits != 0 {
			t.Fatalf("ElisionNone speculated: %+v", ts)
		}
		if p != cuckoohash.ElisionNone && ts.Commits == 0 {
			t.Fatalf("policy %v never committed speculatively: %+v", p, ts)
		}
	}
}

func TestGrowViaPublicAPI(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 256})
	var i uint64
	for {
		if err := m.Insert(i+1, i); err != nil {
			if !errors.Is(err, cuckoohash.ErrFull) {
				t.Fatal(err)
			}
			if err := m.Grow(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		i++
		if i >= 2000 {
			break
		}
	}
	for k := uint64(1); k <= 2000; k++ {
		if v, ok := m.Lookup(k); !ok || v != k-1 {
			t.Fatalf("after grow Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestQuickOracleSequence drives random operation sequences against a Go
// map oracle with testing/quick generating the scripts.
func TestQuickOracleSequence(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16 // small keyspace to force collisions and reuse
		Val  uint32
	}
	check := func(ops []op) bool {
		m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 1 << 12})
		oracle := map[uint64]uint64{}
		for _, o := range ops {
			k, v := uint64(o.Key)+1, uint64(o.Val)
			switch o.Kind % 5 {
			case 0: // Insert
				err := m.Insert(k, v)
				_, exists := oracle[k]
				if exists != errors.Is(err, cuckoohash.ErrExists) {
					return false
				}
				if !exists {
					if err != nil {
						return false
					}
					oracle[k] = v
				}
			case 1: // Upsert
				if m.Upsert(k, v) != nil {
					return false
				}
				oracle[k] = v
			case 2: // Update
				_, exists := oracle[k]
				if m.Update(k, v) != exists {
					return false
				}
				if exists {
					oracle[k] = v
				}
			case 3: // Delete
				_, exists := oracle[k]
				if m.Delete(k) != exists {
					return false
				}
				delete(oracle, k)
			default: // Lookup
				got, ok := m.Lookup(k)
				want, exists := oracle[k]
				if ok != exists || (ok && got != want) {
					return false
				}
			}
		}
		if m.Len() != uint64(len(oracle)) {
			return false
		}
		for k, v := range oracle {
			if got, ok := m.Lookup(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeConsistentSnapshot verifies Range sees exactly the live entries
// even while readers run.
func TestRangeConsistentSnapshot(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 1 << 12})
	for i := uint64(1); i <= 1000; i++ {
		if err := m.Insert(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := workload.NewRand(3)
		for {
			select {
			case <-stop:
				return
			default:
				m.Lookup(rnd.Intn(1000) + 1)
			}
		}
	}()
	seen := 0
	m.Range(func(k uint64, v []uint64) bool {
		if v[0] != k*2 {
			t.Errorf("Range value mismatch at %d: %d", k, v[0])
		}
		seen++
		return true
	})
	close(stop)
	wg.Wait()
	if seen != 1000 {
		t.Fatalf("Range saw %d entries", seen)
	}
}
