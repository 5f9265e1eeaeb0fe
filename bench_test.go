// Benchmarks regenerating every table/figure of the paper's evaluation, one
// testing.B target per figure, plus per-operation microbenchmarks and the
// ablations called out in DESIGN.md §5.
//
//	go test -bench=Fig -benchmem            # all figures, bench-sized
//	go test -bench=BenchmarkOp -benchmem    # per-op microbenchmarks
//	go test -bench=Ablation -benchmem       # design-choice ablations
//
// Figure benchmarks report Mops/s (the paper's unit) via ReportMetric; use
// cmd/cuckoobench for the full-size experiment tables.
package cuckoohash_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cuckoohash"
	"cuckoohash/internal/bench"
	"cuckoohash/internal/core"
	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

// benchScale keeps each figure benchmark in the hundreds of milliseconds.
func benchScale() bench.Scale {
	return bench.Scale{
		Slots:      1 << 15,
		Fig2Keys:   1 << 13,
		Threads:    []int{1, 2, 4, 8},
		MaxThreads: []int{1, 2, 4, 8, 16},
		LookupOps:  1 << 15,
		Seed:       42,
	}
}

// runFigure runs one experiment per iteration and reports the first row's
// first value as Mops/s (every report's leading cell is a throughput).
func runFigure(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	sc := benchScale()
	var last float64
	for i := 0; i < b.N; i++ {
		r := e.Run(sc)
		if len(r.Rows) == 0 || len(r.Rows[0].Values) == 0 {
			b.Fatalf("%s: empty report", id)
		}
		last = r.Rows[0].Values[0]
	}
	// The report's leading cell (throughput for the fig/naive rows, the
	// analytic value for eq1/eq2) doubles as a regression canary.
	b.ReportMetric(last, "top-row-value")
}

func BenchmarkFig1(b *testing.B)   { runFigure(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { runFigure(b, "fig2") }
func BenchmarkFig5a(b *testing.B)  { runFigure(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)  { runFigure(b, "fig5b") }
func BenchmarkFig6a(b *testing.B)  { runFigure(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { runFigure(b, "fig6b") }
func BenchmarkFig7(b *testing.B)   { runFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runFigure(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runFigure(b, "fig9") }
func BenchmarkFig10a(b *testing.B) { runFigure(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { runFigure(b, "fig10b") }
func BenchmarkEq1(b *testing.B)    { runFigure(b, "eq1") }
func BenchmarkEq2(b *testing.B)    { runFigure(b, "eq2") }
func BenchmarkNaive(b *testing.B)  { runFigure(b, "naive") }

// --- per-operation microbenchmarks on the public API ---

func newBenchMap(b *testing.B, cap uint64) *cuckoohash.Map {
	b.Helper()
	m, err := cuckoohash.NewMap(cuckoohash.Config{Capacity: cap})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkOpInsertEmptyTable(b *testing.B) {
	m := newBenchMap(b, uint64(b.N)*2+1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Insert(uint64(i)+1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpInsertAt90(b *testing.B) {
	// Steady-state inserts at 90% occupancy: delete/insert churn.
	const slots = 1 << 16
	m := newBenchMap(b, slots)
	n := uint64(slots) * 90 / 100
	for i := uint64(0); i < n; i++ {
		if err := m.Insert(i+1, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := uint64(i)%n + 1
		m.Delete(old)
		if err := m.Insert(uint64(i)+n+2, 0); err != nil {
			b.Fatal(err)
		}
		if err := m.Insert(old, 0); err != nil {
			b.Fatal(err)
		}
		m.Delete(uint64(i) + n + 2)
	}
}

func BenchmarkOpLookupHit(b *testing.B) {
	const slots = 1 << 16
	m := newBenchMap(b, slots)
	n := uint64(slots) * 95 / 100
	for i := uint64(0); i < n; i++ {
		if err := m.Insert(i+1, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Lookup(uint64(i)%n + 1); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkOpLookupMiss(b *testing.B) {
	const slots = 1 << 16
	m := newBenchMap(b, slots)
	n := uint64(slots) * 95 / 100
	for i := uint64(0); i < n; i++ {
		if err := m.Insert(i+1, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Lookup(uint64(i) | 1<<60); ok {
			b.Fatal("hit")
		}
	}
}

// largeMap is a 2^22-slot, 8-way Map filled to load 0.95 (64 MB of keys
// and values, far past any cache, so a lookup pays for every line it
// reads) with keys drawn as the repository benchmark's table-fill-lookup
// draws them: SplitMix64 of the index, seed 1. It is built once and shared
// by the Large lookups; it returns the map and its key count.
var largeMap = sync.OnceValues(func() (*cuckoohash.Map, uint64) {
	const slots = 1 << 22
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: slots, Associativity: 8})
	n := uint64(slots) * 95 / 100
	for j := uint64(0); j < n; j++ {
		if err := m.Insert(largeKey(j), j); err != nil {
			panic(err)
		}
	}
	return m, n
})

func largeKey(j uint64) uint64 { return hashfn.SplitMix64(j + 1<<32) }

func BenchmarkOpLookupHitLarge(b *testing.B) {
	m, n := largeMap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Lookup(largeKey(hashfn.SplitMix64(uint64(i)) % n)); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkOpLookupMissLarge(b *testing.B) {
	m, n := largeMap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Lookup(largeKey(n + uint64(i))); ok {
			b.Fatal("hit")
		}
	}
}

func BenchmarkOpLookupParallel(b *testing.B) {
	const slots = 1 << 16
	m := newBenchMap(b, slots)
	n := uint64(slots) * 95 / 100
	for i := uint64(0); i < n; i++ {
		if err := m.Insert(i+1, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rnd := workload.NewRand(99)
		for pb.Next() {
			m.Lookup(rnd.Intn(n) + 1)
		}
	})
}

func BenchmarkOpMixed5050Parallel(b *testing.B) {
	const slots = 1 << 18
	m := newBenchMap(b, slots)
	var thread int64
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		th := thread
		thread++
		mu.Unlock()
		keys := workload.NewUniformKeys(7, int(th))
		gen := workload.NewOpGen(workload.Mix5050, uint64(th)+1)
		for pb.Next() {
			if gen.Next() == workload.OpInsert {
				_ = m.Upsert(keys.NextKey(), 1)
			} else {
				m.Lookup(keys.ExistingKey())
			}
		}
	})
}

// --- ablations (DESIGN.md §5) ---

// fillOnce fills a fresh table to 95% with the given options and returns
// Mops/s.
func fillOnce(o core.Options, threads int) float64 {
	tab := core.MustNewTable(o)
	res := bench.Fill(kvAdapter{tab}, bench.FillSpec{
		Threads: threads, Mix: workload.InsertOnly,
		TargetLoad: 0.95, Slots: tab.Cap(), Seed: 7,
	})
	return res.Overall
}

type kvAdapter struct{ t *core.Table }

func (a kvAdapter) Insert(k, v uint64) error       { return a.t.Insert(k, v) }
func (a kvAdapter) Lookup(k uint64) (uint64, bool) { return a.t.Lookup(k) }
func (a kvAdapter) Delete(k uint64) bool           { return a.t.Delete(k) }
func (a kvAdapter) Len() uint64                    { return a.t.Len() }
func (a kvAdapter) Cap() uint64                    { return a.t.Cap() }

// BenchmarkAblationSearch compares BFS and DFS path search.
func BenchmarkAblationSearch(b *testing.B) {
	for _, mode := range []core.SearchMode{core.SearchBFS, core.SearchDFS} {
		name := "BFS"
		if mode == core.SearchDFS {
			name = "DFS"
		}
		b.Run(name, func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				o := core.Defaults(1 << 15)
				o.Search = mode
				o.Seed = 7
				mops = fillOnce(o, 4)
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// BenchmarkAblationPrefetch toggles Options.Prefetch (the BFS frontier
// touch and the early loads of both candidate buckets) on a table of
// largeMap's shape: 2^22 slots, B = 8, filled by one writer from empty to
// load 0.95 with largeMap's keys, 64 MB, so that an insert's buckets miss
// every cache. Whole fills run until b.N inserts have been made (at least
// one), and it reports the time per insert and per insert over each fill's
// final tenth (ns/insert-last-decile, the dense end where nearly every
// insert searches a path). b.N only says when to stop, so ns/op is
// suppressed.
func BenchmarkAblationPrefetch(b *testing.B) {
	const slots = 1 << 22
	n := uint64(slots) * 95 / 100
	for _, pf := range []bool{true, false} {
		b.Run(fmt.Sprintf("prefetch=%v", pf), func(b *testing.B) {
			var inserts, last uint64
			var took, lastTook time.Duration
			for inserts < uint64(b.N) {
				o := core.Defaults(slots)
				o.Prefetch = pf
				tab := core.MustNewTable(o)
				var mark time.Time
				start := time.Now()
				for j := range n {
					if j == n-n/10 {
						mark = time.Now()
					}
					if err := tab.Insert(largeKey(j), j); err != nil {
						b.Fatal(err)
					}
				}
				end := time.Now()
				inserts, took = inserts+n, took+end.Sub(start)
				last, lastTook = last+n/10, lastTook+end.Sub(mark)
			}
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(float64(took.Nanoseconds())/float64(inserts), "ns/insert")
			b.ReportMetric(float64(lastTook.Nanoseconds())/float64(last), "ns/insert-last-decile")
		})
	}
}

// BenchmarkAblationLockLater measures what taking the writer lock after the
// path search buys under concurrent writers: "early" holds the global lock
// through the whole insert, search included (Algorithm 1); "global" takes
// it only around each displacement and the final placement (Algorithm 2,
// Fig. 5's "+lock later"); "striped" replaces it with the bucket-pair
// stripes (§4.4).
func BenchmarkAblationLockLater(b *testing.B) {
	names := map[core.LockMode]string{core.LockEarly: "early", core.LockGlobal: "global", core.LockStriped: "striped"}
	for _, lm := range []core.LockMode{core.LockEarly, core.LockGlobal, core.LockStriped} {
		b.Run(names[lm], func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				o := core.Defaults(1 << 15)
				o.Locking = lm
				o.Seed = 7
				mops = fillOnce(o, 8)
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// BenchmarkAblationStripes sweeps the lock-stripe count (§4.2 suggests
// 1K-8K entries).
func BenchmarkAblationStripes(b *testing.B) {
	for _, stripes := range []int{1, 64, 1024, 4096, 8192} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				o := core.Defaults(1 << 15)
				o.Stripes = stripes
				o.Seed = 7
				mops = fillOnce(o, 8)
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// BenchmarkAblationElision compares the glibc and TSX* elision policies on
// the optimized table (Appendix A).
func BenchmarkAblationElision(b *testing.B) {
	for _, p := range []htm.Policy{htm.PolicyGlibc, htm.PolicyTuned, htm.PolicyNone} {
		b.Run(p.String(), func(b *testing.B) {
			s := bench.CuckooPlusTSX(p.String(), p, core.SearchBFS, true)
			var mops float64
			for i := 0; i < b.N; i++ {
				tab := s.New(1<<15, 1, 8, 7)
				res := bench.Fill(tab, bench.FillSpec{
					Threads: 8, Mix: workload.InsertOnly,
					TargetLoad: 0.95, Slots: 1 << 15, Seed: 7,
				})
				mops = res.Overall
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// BenchmarkAblationAssociativity sweeps B (Figures 8-9's knob) for inserts.
func BenchmarkAblationAssociativity(b *testing.B) {
	for _, assoc := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("%d-way", assoc), func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				o := core.Defaults(1 << 15)
				o.Assoc = assoc
				buckets := uint64(2)
				for buckets*uint64(assoc) < 1<<15 {
					buckets <<= 1
				}
				o.Buckets = buckets
				o.Seed = 7
				mops = fillOnce(o, 4)
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}
