package openaddr

import (
	"errors"
	"sync"
	"testing"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

func TestPutGetDelete(t *testing.T) {
	m := New(1024, 7, 0.5, false)
	for k := uint64(1); k <= 2000; k++ {
		if err := m.Put(k, k*3); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if m.Len() != 2000 {
		t.Fatalf("Len = %d", m.Len())
	}
	for k := uint64(1); k <= 2000; k++ {
		if v, ok := m.Get(k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := m.Get(99999); ok {
		t.Fatal("found absent key")
	}
	if err := m.Put(10, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(10); v != 1 {
		t.Fatal("overwrite failed")
	}
	if m.Len() != 2000 {
		t.Fatalf("Len after overwrite = %d", m.Len())
	}
	if !m.Delete(10) || m.Delete(10) {
		t.Fatal("delete semantics")
	}
	if _, ok := m.Get(10); ok {
		t.Fatal("deleted key present")
	}
	// Resizing happened since we exceeded 0.5 * 1024.
	if m.Resizes() == 0 {
		t.Fatal("expected resizes")
	}
	// Load factor stays at most 0.5.
	if lf := float64(m.Len()+m.tomb) / float64(m.Cap()); lf > 0.5 {
		t.Fatalf("load factor %.3f > 0.5", lf)
	}
}

func TestTombstoneReuse(t *testing.T) {
	m := New(64, 3, 0.5, true)
	for k := uint64(1); k <= 30; k++ {
		if err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 30; k++ {
		m.Delete(k)
	}
	// Tombstones must be reclaimed by new inserts in a fixed table.
	for k := uint64(100); k < 130; k++ {
		if err := m.Put(k, k); err != nil {
			t.Fatalf("Put(%d) into tombstoned table: %v", k, err)
		}
	}
	for k := uint64(100); k < 130; k++ {
		if v, ok := m.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestFixedFull(t *testing.T) {
	m := New(16, 1, 0.5, true)
	var err error
	for k := uint64(1); ; k++ {
		if err = m.Put(k, k); err != nil {
			break
		}
		if k > 100 {
			t.Fatal("fixed table never filled")
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestOracleRandomOps(t *testing.T) {
	m := New(1<<10, 11, 0.5, false)
	oracle := map[uint64]uint64{}
	rnd := workload.NewRand(5)
	for i := 0; i < 50000; i++ {
		k := rnd.Intn(2048)
		switch rnd.Intn(4) {
		case 0, 1:
			v := rnd.Next()
			if err := m.Put(k, v); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		case 2:
			got := m.Delete(k)
			_, want := oracle[k]
			if got != want {
				t.Fatalf("Delete(%d) = %v want %v", k, got, want)
			}
			delete(oracle, k)
		default:
			v, ok := m.Get(k)
			wv, wok := oracle[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", k, v, ok, wv, wok)
			}
		}
	}
	if m.Len() != uint64(len(oracle)) {
		t.Fatalf("Len = %d want %d", m.Len(), len(oracle))
	}
}

func TestTxMapBasicAndConcurrent(t *testing.T) {
	m := MustNewTxMap(1<<14, 3, htm.PolicyTuned, htm.DefaultConfig())
	const threads = 8
	const per = 500 // stays below the 0.5-load cliff
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			base := uint64(th+1) << 32
			for i := uint64(0); i < per; i++ {
				if err := m.Put(base|i, i); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if m.Len() != threads*per {
		t.Fatalf("Len = %d want %d", m.Len(), threads*per)
	}
	for th := 0; th < threads; th++ {
		base := uint64(th+1) << 32
		for i := uint64(0); i < per; i++ {
			if v, ok := m.Get(base | i); !ok || v != i {
				t.Fatalf("Get(%d) = %d,%v", base|i, v, ok)
			}
		}
	}
	if !m.Delete(uint64(1)<<32) || m.Delete(uint64(1)<<32) {
		t.Fatal("delete semantics")
	}
	s := m.Region().Stats()
	t.Logf("stats: %+v abort-rate=%.3f", s, s.AbortRate())
}
