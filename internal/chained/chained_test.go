package chained

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

func TestPutGetDeleteUnsync(t *testing.T) {
	m := MustNew(Defaults(1024, false))
	for k := uint64(1); k <= 500; k++ {
		m.Put(k, k*2)
	}
	if m.Len() != 500 {
		t.Fatalf("Len = %d", m.Len())
	}
	for k := uint64(1); k <= 500; k++ {
		if v, ok := m.Get(k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	m.Put(3, 99) // overwrite
	if v, _ := m.Get(3); v != 99 {
		t.Fatal("overwrite failed")
	}
	if m.Len() != 500 {
		t.Fatalf("Len after overwrite = %d", m.Len())
	}
	if !m.Delete(3) || m.Delete(3) {
		t.Fatal("delete semantics")
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("deleted key still present")
	}
}

func TestGrowUnsync(t *testing.T) {
	o := Options{Buckets: 16, Sync: false, GrowAt: 1.0}
	m := MustNew(o)
	for k := uint64(1); k <= 1000; k++ {
		m.Put(k, k)
	}
	if m.Resizes() == 0 {
		t.Fatal("expected at least one resize")
	}
	for k := uint64(1); k <= 1000; k++ {
		if v, ok := m.Get(k); !ok || v != k {
			t.Fatalf("after grow Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestConcurrentSync(t *testing.T) {
	m := MustNew(Defaults(1<<14, true))
	const threads = 8
	const per = 4000
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			base := uint64(th+1) << 32
			rnd := workload.NewRand(uint64(th))
			for i := uint64(0); i < per; i++ {
				k := base | i
				m.Put(k, i)
				if v, ok := m.Get(k); !ok || v != i {
					t.Errorf("Get(just put %d) = %d,%v", k, v, ok)
					return
				}
				if rnd.Intn(10) == 0 {
					m.Delete(k)
					m.Put(k, i)
				}
			}
		}(th)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if m.Len() != threads*per {
		t.Fatalf("Len = %d, want %d", m.Len(), threads*per)
	}
}

func TestConcurrentSyncWithGrow(t *testing.T) {
	o := Defaults(256, true)
	o.GrowAt = 2.0
	m := MustNew(o)
	const threads = 4
	const per = 5000
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			base := uint64(th+1) << 32
			for i := uint64(0); i < per; i++ {
				m.Put(base|i, i)
			}
		}(th)
	}
	wg.Wait()
	if m.Len() != threads*per {
		t.Fatalf("Len = %d, want %d", m.Len(), threads*per)
	}
	if m.Resizes() == 0 {
		t.Fatal("expected resizes")
	}
	for th := 0; th < threads; th++ {
		base := uint64(th+1) << 32
		for i := uint64(0); i < per; i++ {
			if v, ok := m.Get(base | i); !ok || v != i {
				t.Fatalf("Get(%d) = %d,%v", base|i, v, ok)
			}
		}
	}
}

func TestMemoryFootprintRatio(t *testing.T) {
	// The chained table must cost noticeably more than 16 B/entry — the
	// paper's 2–3× memory argument against pointer-chained designs.
	m := MustNew(Defaults(1<<12, false))
	for k := uint64(1); k <= 1<<12; k++ {
		m.Put(k, k)
	}
	perEntry := float64(m.MemoryFootprint()) / float64(m.Len())
	if perEntry < 32 {
		t.Fatalf("per-entry footprint %.1f B, expected >= 32 B", perEntry)
	}
}

func TestTxMapBasic(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		m := MustNewTxMap(1<<10, 1<<11, 1, htm.PolicyTuned, chunked, htm.DefaultConfig())
		for k := uint64(1); k <= 800; k++ {
			if err := m.Put(0, k, k*5); err != nil {
				t.Fatalf("Put(%d): %v", k, err)
			}
		}
		for k := uint64(1); k <= 800; k++ {
			if v, ok := m.Get(k); !ok || v != k*5 {
				t.Fatalf("Get(%d) = %d,%v", k, v, ok)
			}
		}
		m.Put(0, 1, 42)
		if v, _ := m.Get(1); v != 42 {
			t.Fatal("overwrite failed")
		}
		if m.Len() != 800 {
			t.Fatalf("Len = %d", m.Len())
		}
	}
}

func TestTxMapConcurrent(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		m := MustNewTxMap(1<<12, 1<<15, 1, htm.PolicyTuned, chunked, htm.DefaultConfig())
		const threads = 8
		const per = 2000
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				base := uint64(th+1) << 32
				for i := uint64(0); i < per; i++ {
					if err := m.Put(th, base|i, i); err != nil {
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
			t.Fatalf("chunked=%v Len = %d, want %d", chunked, m.Len(), threads*per)
		}
		for th := 0; th < threads; th++ {
			base := uint64(th+1) << 32
			for i := uint64(0); i < per; i++ {
				if v, ok := m.Get(base | i); !ok || v != i {
					t.Fatalf("Get(%d) = %d,%v", base|i, v, ok)
				}
			}
		}
		s := m.Region().Stats()
		t.Logf("chunked=%v stats: %+v abort-rate=%.3f", chunked, s, s.AbortRate())
	}
}

// TestTxMapAllocatorConflicts verifies the design point: the shared bump
// allocator makes concurrent inserts conflict on its cursor line, and
// per-thread chunks take that line out of all but one allocation in
// chunkNodes (§5's dynamic-allocation abort problem and its P3 fix).
//
// What is measured is the allocator alone — TxMap.alloc in bare speculative
// transactions, no chain heads, no elision policy — and the overlap the
// claim is about is forced rather than hoped for: every transaction yields
// the processor between taking its node and committing, so the other
// goroutines run into whatever lines it holds, at GOMAXPROCS=1 as much as
// at 4. What is counted is allocations that met a conflict, not aborts: how
// often a loser re-aborts while the line's holder waits for a processor is
// the scheduler's doing, whether it had to abort at all is the allocator's.
func TestTxMapAllocatorConflicts(t *testing.T) {
	const threads, per = 8, 512
	run := func(chunked bool) (conflicted int64) {
		m := MustNewTxMap(2, threads*per, 1, htm.PolicyTuned, chunked, htm.DefaultConfig())
		var total atomic.Int64
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					hit := false
					for {
						err, committed, code := m.Region().Run(func(tx *htm.Txn) error {
							_, err := m.alloc(tx, th)
							runtime.Gosched()
							return err
						})
						if err != nil {
							t.Errorf("alloc: %v", err)
							return
						}
						if committed {
							break
						}
						hit = hit || code&htm.AbortConflict != 0
						runtime.Gosched() // let the holder of the line commit
					}
					if hit {
						total.Add(1)
					}
					runtime.Gosched() // and let another goroutine have the next turn
				}
			}(th)
		}
		wg.Wait()
		if got := m.Region().Stats().Commits; got != threads*per {
			t.Errorf("chunked=%v: %d commits, want %d", chunked, got, threads*per)
		}
		return total.Load()
	}
	shared, chunked := run(false), run(true)
	t.Logf("of %d allocations, met a conflict: shared cursor %d, per-thread chunks %d", threads*per, shared, chunked)
	if t.Failed() {
		t.FailNow()
	}
	// A chunked allocation touches only its own thread's cursor line unless
	// it is a refill, so refills are all that can conflict: this bound does
	// not depend on the schedule.
	if refills := int64(threads * per / chunkNodes); chunked > refills {
		t.Fatalf("per-thread chunks: %d allocations met a conflict, but only the %d refills touch the shared line", chunked, refills)
	}
	// With the shared cursor every allocation is open while seven other
	// goroutines want the same line. Measured: 98% of allocations at
	// GOMAXPROCS=1, never under 50% at 4 Ps on 2 CPUs, where a yield with
	// an empty run queue returns at once; a quarter is 16 times the refills.
	if shared < threads*per/4 {
		t.Fatalf("shared cursor: only %d of %d overlapping allocations met a conflict", shared, threads*per)
	}
}
