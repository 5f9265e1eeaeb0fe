package core

import (
	"errors"
	"sync"
	"testing"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

func newTxTest(slots uint64, policy htm.Policy, locking LockMode) *TxTable {
	o := testOptions(slots)
	o.Locking = locking
	return MustNewTxTable(o, policy, htm.DefaultConfig())
}

// TestTxInsertLookupBasic runs with the search outside the transaction
// (LockStriped: TxTable takes no other lock) and inside it (LockEarly).
func TestTxInsertLookupBasic(t *testing.T) {
	for _, p := range []htm.Policy{htm.PolicyNone, htm.PolicyGlibc, htm.PolicyTuned} {
		t.Run(p.String(), func(t *testing.T) {
			for _, locking := range []LockMode{LockStriped, LockEarly} {
				tab := newTxTest(1<<10, p, locking)
				for k := uint64(1); k <= 400; k++ {
					if err := tab.Insert(k, k*2); err != nil {
						t.Fatalf("locking=%v: Insert(%d): %v", locking, k, err)
					}
				}
				if tab.Len() != 400 {
					t.Fatalf("locking=%v: Len = %d", locking, tab.Len())
				}
				for k := uint64(1); k <= 400; k++ {
					if v, ok := tab.Lookup(k); !ok || v != k*2 {
						t.Fatalf("locking=%v: Lookup(%d) = %d,%v", locking, k, v, ok)
					}
				}
				if _, ok := tab.Lookup(12345); ok {
					t.Fatalf("locking=%v: found absent key", locking)
				}
				if err := tab.Insert(1, 0); !errors.Is(err, ErrExists) {
					t.Fatalf("locking=%v: duplicate insert: %v", locking, err)
				}
				if !tab.Delete(1) || tab.Delete(1) {
					t.Fatalf("locking=%v: delete semantics wrong", locking)
				}
				if tab.Len() != 399 {
					t.Fatalf("locking=%v: Len after delete = %d", locking, tab.Len())
				}
				// A TxTable's capacity is fixed at creation.
				if lf := tab.LoadFactor(); tab.Cap() != 1<<10 || lf != 399.0/(1<<10) || tab.Stats().Grows != 0 {
					t.Fatalf("locking=%v: Cap %d, LoadFactor %v, Grows %d with 399 keys", locking, tab.Cap(), lf, tab.Stats().Grows)
				}
			}
		})
	}
}

func TestTxFillTo95(t *testing.T) {
	tab := newTxTest(1<<13, htm.PolicyTuned, LockStriped)
	gen := workload.NewSequentialKeys(1)
	var inserted uint64
	for {
		if err := tab.Insert(gen.NextKey(), 1); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		inserted++
	}
	if lf := float64(inserted) / float64(tab.Cap()); lf < 0.95 {
		t.Fatalf("full at load factor %.3f, want >= 0.95", lf)
	}
}

// TestTxConcurrentOracle runs with the search outside the transaction and
// inside it (LockEarly), under each elision policy: PolicyNone must never
// speculate and the other two must commit speculatively.
func TestTxConcurrentOracle(t *testing.T) {
	for _, p := range []htm.Policy{htm.PolicyNone, htm.PolicyGlibc, htm.PolicyTuned} {
		t.Run(p.String(), func(t *testing.T) {
			for _, locking := range []LockMode{LockStriped, LockEarly} {
				tab := newTxTest(1<<15, p, locking)
				const threads = 8
				const ops = 8000
				oracles := make([]map[uint64]uint64, threads)
				var wg sync.WaitGroup
				for th := 0; th < threads; th++ {
					wg.Add(1)
					go func(th int) {
						defer wg.Done()
						oracle := make(map[uint64]uint64)
						oracles[th] = oracle
						rnd := workload.NewRand(uint64(th) + 7)
						base := uint64(th) << 32
						for i := 0; i < ops; i++ {
							k := base | rnd.Intn(2048)
							switch rnd.Intn(10) {
							case 0, 1, 2, 3, 4:
								v := rnd.Next()
								if err := tab.Upsert(k, v); err != nil {
									t.Errorf("Upsert: %v", err)
									return
								}
								oracle[k] = v
							case 5:
								got := tab.Delete(k)
								if _, want := oracle[k]; got != want {
									t.Errorf("Delete(%d) = %v", k, got)
									return
								}
								delete(oracle, k)
							default:
								v, ok := tab.Lookup(k)
								wv, wok := oracle[k]
								if ok != wok || (ok && v != wv) {
									t.Errorf("Lookup(%d) = %d,%v want %d,%v", k, v, ok, wv, wok)
									return
								}
							}
						}
					}(th)
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}
				var want uint64
				for th := 0; th < threads; th++ {
					want += uint64(len(oracles[th]))
					for k, v := range oracles[th] {
						if got, ok := tab.Lookup(k); !ok || got != v {
							t.Fatalf("locking=%v: final Lookup(%d) = %d,%v want %d,true", locking, k, got, ok, v)
						}
					}
				}
				if got := tab.Len(); got != want {
					t.Fatalf("locking=%v: Len = %d, want %d", locking, got, want)
				}
				s := tab.Region().Stats()
				if p == htm.PolicyNone && s.Commits != 0 {
					t.Fatalf("locking=%v: PolicyNone speculated: %+v", locking, s)
				}
				if p != htm.PolicyNone && s.Commits == 0 {
					t.Fatalf("locking=%v: no transactions committed", locking)
				}
				t.Logf("locking=%v: region stats: %+v abort-rate=%.3f", locking, s, s.AbortRate())
			}
		})
	}
}

// TestTxShortTransactions verifies §5's central claim in emulation: with the
// algorithmic optimizations, insert transactions at high occupancy stay far
// below the capacity limit and the abort rate stays low under 8 writers.
func TestTxShortTransactionsLowAborts(t *testing.T) {
	tab := newTxTest(1<<15, htm.PolicyTuned, LockStriped)
	// Fill to 85% concurrently.
	const threads = 8
	target := uint64(float64(tab.Cap()) * 0.85 / threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			gen := workload.NewUniformKeys(99, th)
			for i := uint64(0); i < target; i++ {
				if err := tab.Insert(gen.NextKey(), i); err != nil {
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
	if s.CapacityAborts > s.Commits/100 {
		t.Fatalf("capacity aborts %d vs commits %d: transactions not short", s.CapacityAborts, s.Commits)
	}
	if rate := s.AbortRate(); rate > 0.5 {
		t.Fatalf("abort rate %.3f too high for optimized cuckoo", rate)
	}
	t.Logf("stats: %+v abort-rate=%.3f", s, s.AbortRate())
}
