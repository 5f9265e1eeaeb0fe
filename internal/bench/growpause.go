package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cuckoohash/generic"
)

// stwTable is the pre-incremental resize strategy, preserved here as the
// benchmark baseline: readers and writers share an RWMutex, and a full
// table is grown by taking the write lock, allocating a doubled table,
// and reinserting every entry while every other operation waits. This is
// exactly what generic.Table did before the two-generation migrator
// (docs/DESIGN.md, "stop-the-world events"), so growpause measures the
// old path against the new one on identical workloads.
type stwTable struct {
	mu       sync.RWMutex
	tab      *generic.Table[uint64, uint64]
	capSlots uint64
	rebuilds uint64
}

func newSTWTable(initial uint64) *stwTable {
	t, err := generic.New[uint64, uint64](generic.Config{
		InitialCapacity:        initial,
		DisableAutoGrow:        true,
		DisableBackgroundSweep: true,
	})
	if err != nil {
		panic(err)
	}
	return &stwTable{tab: t, capSlots: initial}
}

func (s *stwTable) insert(key, val uint64) {
	for {
		s.mu.RLock()
		err := s.tab.Insert(key, val)
		s.mu.RUnlock()
		if err == nil {
			return
		}
		if err != generic.ErrFull {
			panic(err)
		}
		s.rebuild()
	}
}

// rebuild is the stop-the-world grow: everything blocks behind the write
// lock while the whole table is copied. A racing thread that also saw
// ErrFull re-checks under the lock so the table is not doubled twice for
// one fill level.
func (s *stwTable) rebuild() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tab.LoadFactor() < 0.5 {
		return // another thread already rebuilt
	}
	next, err := generic.New[uint64, uint64](generic.Config{
		InitialCapacity:        s.capSlots * 2,
		DisableAutoGrow:        true,
		DisableBackgroundSweep: true,
	})
	if err != nil {
		panic(err)
	}
	s.tab.Range(func(k, v uint64) bool {
		if err := next.Insert(k, v); err != nil {
			panic(err)
		}
		return true
	})
	s.tab = next
	s.capSlots *= 2
	s.rebuilds++
}

// latStats reduces a latency sample to the two numbers growpause reports.
func latStats(lats []time.Duration) (maxUS, p99US float64) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	maxUS = float64(lats[len(lats)-1]) / float64(time.Microsecond)
	p99US = float64(lats[len(lats)*99/100]) / float64(time.Microsecond)
	return
}

// GrowPause measures the client-visible cost of table resizing: N unique
// inserts into a deliberately undersized table (several doublings deep),
// with every single operation timed. Under the stop-the-world baseline
// the unlucky insert that triggers a grow pays for rebuilding the entire
// table — and under contention every concurrent operation queues behind
// it — so the max single-op latency tracks the table size. Under the
// incremental path (generic.Table as shipped) the same grow is a pointer
// flip plus a bounded per-op migration batch, so the max op stays within
// a constant factor of an ordinary insert. The background sweeper is
// disabled on the incremental side: all migration work is charged to the
// timed operations, which is the worst case for the new path.
//
// Acceptance (docs/ROBUSTNESS.md): incremental max single-op latency at
// least 10x below stop-the-world at the deepest doubling.
func GrowPause(sc Scale) *Report {
	// The pause under measurement scales with the table, so the run is
	// floored at 1M slots even at -scale small: at toy sizes the deepest
	// rebuild is a few ms and scheduler jitter on a small host drowns
	// the comparison.
	slots := sc.Slots
	if slots < 1<<20 {
		slots = 1 << 20
	}
	n := slots / 2        // entries inserted: final load ~50% of slots
	initial := slots / 64 // six doublings to get there
	r := &Report{
		ID: "growpause",
		Title: fmt.Sprintf("Resize pause, %d inserts from %d slots: stop-the-world vs incremental",
			n, initial),
		Unit:    "µs",
		Columns: []string{"stw max", "incr max", "reduction", "stw p99", "incr p99"},
	}

	runSTW := func(threads int) ([]time.Duration, uint64) {
		runtime.GC() // don't charge the previous run's garbage to a timed op
		t := newSTWTable(initial)
		lats := timedInserts(threads, n, func(key uint64) { t.insert(key, key) })
		return lats, t.rebuilds
	}
	runIncr := func(threads int) ([]time.Duration, uint64) {
		runtime.GC() // don't charge the STW run's garbage to a timed op
		t, err := generic.New[uint64, uint64](generic.Config{
			InitialCapacity:        initial,
			DisableBackgroundSweep: true, // charge all migration to the timed ops
		})
		if err != nil {
			panic(err)
		}
		lats := timedInserts(threads, n, func(key uint64) {
			if err := t.Insert(key, key); err != nil {
				panic(err)
			}
		})
		if t.Growing() {
			t.MigrateBatch(int(slots)) // drain any tail before the audit
		}
		if got := t.Len(); got != n {
			panic(fmt.Sprintf("growpause: %d entries after %d inserts", got, n))
		}
		return lats, t.Stats().Grows
	}

	thRows := []int{1}
	if last := sc.Threads[len(sc.Threads)-1]; last > 1 {
		thRows = append(thRows, last)
	}
	for _, th := range thRows {
		stwLats, rebuilds := runSTW(th)
		incrLats, grows := runIncr(th)
		stwMax, stwP99 := latStats(stwLats)
		incrMax, incrP99 := latStats(incrLats)
		reduction := 0.0
		if incrMax > 0 {
			reduction = stwMax / incrMax
		}
		r.AddRow(fmt.Sprintf("%d-thr insert", th), stwMax, incrMax, reduction, stwP99, incrP99)
		if th == 1 {
			r.AddNote("doublings per run: stop-the-world rebuilds=%d, incremental grows=%d", rebuilds, grows)
		}
	}
	r.AddNote("incremental side runs with the background sweeper disabled: every migrated bucket is charged to a timed insert (worst case for the new path)")
	r.AddNote("acceptance: incremental max single-op latency >= 10x below stop-the-world (the rebuild pause scales with table size; a migration batch does not)")
	return r
}

// timedInserts drives n unique inserts across threads (disjoint key
// ranges) and returns every operation's individually clocked latency.
func timedInserts(threads int, n uint64, insert func(key uint64)) []time.Duration {
	per := n / uint64(threads)
	out := make([][]time.Duration, threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			lo := uint64(th) * per
			hi := lo + per
			if th == threads-1 {
				hi = n
			}
			lats := make([]time.Duration, 0, hi-lo)
			for key := lo; key < hi; key++ {
				t0 := time.Now()
				insert(key)
				lats = append(lats, time.Since(t0))
			}
			out[th] = lats
		}(th)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range out {
		all = append(all, l...)
	}
	return all
}
