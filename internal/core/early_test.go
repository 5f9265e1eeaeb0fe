package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

// baselineOptions is MemC3's own configuration, the "cuckoo" baseline of the
// figures: Algorithm 1 (LockEarly) with the random-walk DFS, 4-way buckets,
// M = 2000 and no prefetch, sized for slots.
func baselineOptions(slots uint64) Options {
	o := testOptions(slots)
	o.Assoc = 4
	o.Buckets = ceilPow2(slots / 4)
	o.Locking = LockEarly
	o.Search = SearchDFS
	o.Prefetch = false
	return o
}

// TestFillLosesNoKey fills each table until ErrFull and then looks every
// accepted key up again. Near full the random walk is long enough to cross
// itself; a crossed path executed blindly moves a key into a bucket that is
// not one of its own two, where no lookup finds it (31 of 3 985 keys lost
// before execution re-checked each hop's key).
func TestFillLosesNoKey(t *testing.T) {
	o := baselineOptions(1 << 12)
	tables := map[string]interface {
		Insert(key, val uint64) error
		Lookup(key uint64) (uint64, bool)
		Stats() Stats
	}{
		"Table":   MustNewTable(o),
		"TxTable": MustNewTxTable(o, htm.PolicyTuned, htm.DefaultConfig()),
	}
	for name, tab := range tables {
		t.Run(name, func(t *testing.T) {
			gen := workload.NewSequentialKeys(1 << 20)
			var keys []uint64
			for {
				k := gen.NextKey()
				if err := tab.Insert(k, k*3); err != nil {
					if err != ErrFull {
						t.Fatalf("Insert(%d): %v", k, err)
					}
					break
				}
				keys = append(keys, k)
			}
			if lf := float64(len(keys)) / float64(o.Buckets*uint64(o.Assoc)); lf < 0.9 {
				t.Fatalf("full at load factor %.3f: the walk never got long", lf)
			}
			for _, k := range keys {
				if v, ok := tab.Lookup(k); !ok || v != k*3 {
					t.Fatalf("Lookup(%d) = %d,%v after a fill of %d keys", k, v, ok, len(keys))
				}
			}
			if s := tab.Stats(); s.PathRestarts == 0 {
				t.Fatalf("no walk crossed itself in %d keys, so none was checked: %+v", len(keys), s.ProbeStats)
			}
		})
	}
}

// TestSingleWriterManyReaders exercises the optimistic read protocol while
// the writer holding the lock through its search churns: readers must
// always see their stable keys.
func TestSingleWriterManyReaders(t *testing.T) {
	tab := MustNewTable(baselineOptions(1 << 14))
	for k := uint64(1); k <= 1000; k++ {
		if err := tab.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		gen := workload.NewSequentialKeys(1 << 20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tab.Insert(gen.NextKey(), 9); err != nil {
				return // table filled; stop writing
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rnd := workload.NewRand(uint64(r))
			for i := 0; i < 50000; i++ {
				k := rnd.Intn(1000) + 1
				if v, ok := tab.Lookup(k); !ok || v != k*3 {
					t.Errorf("Lookup(%d) = %d,%v want %d,true", k, v, ok, k*3)
					return
				}
			}
		}(r)
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

// TestTxTableHighOccupancyAborts reproduces the §2.3 observation: the
// unoptimized insert (the search inside the transaction) at high occupancy
// aborts heavily under concurrent writers.
func TestTxTableHighOccupancyAborts(t *testing.T) {
	tab := MustNewTxTable(baselineOptions(1<<13), htm.PolicyGlibc, htm.DefaultConfig())
	gen := workload.NewSequentialKeys(1)
	target := uint64(float64(tab.Cap()) * 0.80)
	for i := uint64(0); i < target; i++ {
		if err := tab.Insert(gen.NextKey(), 0); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	tab.Region().ResetStats()
	const writers = 8
	var ready atomic.Int32
	var wg sync.WaitGroup
	for th := 0; th < writers; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			// Start once every writer runs: writers that each finish
			// within one scheduling quantum could otherwise run one after
			// another and never conflict.
			ready.Add(1)
			for ready.Load() < writers {
				runtime.Gosched()
			}
			g := workload.NewUniformKeys(7, th)
			for i := 0; i < 400; i++ {
				err := tab.Insert(g.NextKey(), 1)
				if err != nil && !errors.Is(err, ErrFull) {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	s := tab.Region().Stats()
	if s.Aborts == 0 && s.Fallbacks == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatalf("expected aborts or fallbacks under contention, got %+v", s)
	}
	t.Logf("unoptimized cuckoo under 8 writers: %+v abort-rate=%.3f", s, s.AbortRate())
}

// TestInsertLookup covers a LockEarly table's single-threaded semantics:
// insert, lookup, duplicate insert, delete and Len.
func TestInsertLookup(t *testing.T) {
	tab := MustNewTable(baselineOptions(1 << 10))
	for k := uint64(1); k <= 400; k++ {
		if err := tab.Insert(k, k+7); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(1); k <= 400; k++ {
		if v, ok := tab.Lookup(k); !ok || v != k+7 {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tab.Lookup(4040); ok {
		t.Fatal("found absent key")
	}
	if err := tab.Insert(1, 0); !errors.Is(err, ErrExists) {
		t.Fatalf("dup insert: %v", err)
	}
	if !tab.Delete(1) || tab.Delete(1) {
		t.Fatal("delete semantics")
	}
	if tab.Len() != 399 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

// TestFillOccupancy: MemC3's 4-way table reaches ~95% before ErrFull.
func TestFillOccupancy(t *testing.T) {
	tab := MustNewTable(baselineOptions(1 << 14))
	gen := workload.NewSequentialKeys(1)
	var n uint64
	for {
		if err := tab.Insert(gen.NextKey(), 0); err != nil {
			if err != ErrFull {
				t.Fatalf("Insert: %v", err)
			}
			break
		}
		n++
	}
	if lf := float64(n) / float64(tab.Cap()); lf < 0.90 {
		t.Fatalf("4-way table full at %.3f, want >= 0.90", lf)
	}
}

// insertDisjoint has threads goroutines insert per keys each, from disjoint
// key ranges, and then checks every key and Len.
func insertDisjoint(t *testing.T, tab interface {
	Insert(key, val uint64) error
	Lookup(key uint64) (uint64, bool)
	Len() uint64
}, threads, per int) {
	t.Helper()
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			base := uint64(th+1) << 32
			for i := uint64(0); i < uint64(per); i++ {
				if err := tab.Insert(base|i, i); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if tab.Len() != uint64(threads*per) {
		t.Fatalf("Len = %d, want %d", tab.Len(), threads*per)
	}
	for th := 0; th < threads; th++ {
		base := uint64(th+1) << 32
		for i := uint64(0); i < uint64(per); i++ {
			if v, ok := tab.Lookup(base | i); !ok || v != i {
				t.Fatalf("Lookup(%d) = %d,%v", base|i, v, ok)
			}
		}
	}
}

// TestWritersSerialize verifies that goroutines calling Insert on a
// LockEarly table, which serializes whole inserts, corrupt nothing.
func TestWritersSerialize(t *testing.T) {
	insertDisjoint(t, MustNewTable(baselineOptions(1<<14)), 4, 2000)
}

// TestTxTableBasic covers a LockEarly TxTable's single-threaded semantics
// under each elision policy.
func TestTxTableBasic(t *testing.T) {
	for _, p := range []htm.Policy{htm.PolicyNone, htm.PolicyGlibc, htm.PolicyTuned} {
		t.Run(p.String(), func(t *testing.T) {
			tab := MustNewTxTable(baselineOptions(1<<10), p, htm.DefaultConfig())
			for k := uint64(1); k <= 300; k++ {
				if err := tab.Insert(k, k); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			for k := uint64(1); k <= 300; k++ {
				if v, ok := tab.Lookup(k); !ok || v != k {
					t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
				}
			}
			if err := tab.Insert(5, 0); !errors.Is(err, ErrExists) {
				t.Fatalf("dup: %v", err)
			}
			if !tab.Delete(5) || tab.Delete(5) {
				t.Fatal("delete semantics")
			}
			if tab.Len() != 299 {
				t.Fatalf("Len = %d", tab.Len())
			}
		})
	}
}

// TestTxTableConcurrentWriters runs eight writers on a LockEarly TxTable,
// each whole insert one elided transaction.
func TestTxTableConcurrentWriters(t *testing.T) {
	tab := MustNewTxTable(baselineOptions(1<<14), htm.PolicyTuned, htm.DefaultConfig())
	insertDisjoint(t, tab, 8, 1000)
	s := tab.Region().Stats()
	t.Logf("stats: %+v abort-rate=%.3f", s, s.AbortRate())
}
