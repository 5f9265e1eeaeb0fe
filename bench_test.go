// Benchmarks of the paper's evaluation (§6), per-operation
// microbenchmarks, and the ablations called out in DESIGN.md §5.
//
// Every figure is a benchmark whose sub-benchmarks are its cells, such as
// BenchmarkFig6/cuckoo+_with_TSX/100%ins/threads=2. A cell runs whole fills
// (or lookup passes, or sample sets) on fresh tables until b.N operations
// are done, at least one, and reports the figure's own metrics as means
// over them: Mops/s, the fill windows' Mops/s@lo-hi, abort rates, B/entry,
// latency quantiles, path lengths. b.N only says when to stop, so ns/op is
// suppressed: -benchtime 1x is one run a cell, -benchtime 1s times each
// cell for at least a second. BenchmarkCeiling, the host's own scaling
// ceiling, runs beside them. EXPERIMENTS.md maps every row and column of
// the paper's figures to its cell and metric.
//
//	go test -run '^$' -bench 'Fig|Eq|Memory|Latency|Zipf|Churn|Ceiling' -benchtime 1x .  # every cell once (make bench-smoke)
//	make bench-rung PKG=. RUNG=Fig6 BASE=<rev> BENCHTIME=1x [SCALE=medium]               # one figure against another commit
//	go test -run '^$' -bench Op -benchmem .                                               # per-operation microbenchmarks
//	go test -run '^$' -bench Ablation .                                                   # design-choice ablations
//
// The -scale flag sets the figures' sizes: small (the default; every
// figure in seconds), medium or paper (the paper's 2^27-slot tables, ~4 GB:
// Fig 5a's cells then hold 2 GiB tables, so run with GOMEMLIMIT=2600MiB or
// the garbage tables of earlier runs take RSS past 6 GB). Absolute
// throughput is not comparable to the paper's C++/Haswell numbers; the
// shapes (scaling slopes, crossovers, ratios) are the reproduced object.
package cuckoohash_test

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuckoohash"
	"cuckoohash/internal/bench"
	"cuckoohash/internal/chained"
	"cuckoohash/internal/core"
	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/openaddr"
	"cuckoohash/internal/workload"
)

var scaleName = flag.String("scale", "small", "sizes of the figure benchmarks: small, medium or paper")

// scale sets a figure's sizes.
type scale struct {
	slots      uint64 // table slots
	fig2Keys   uint64 // Fig 2's inserts, into 8× as many slots
	lookupOps  uint64 // operations a thread in Fig 8's, zipf's and churn's runs
	threads    []int  // the thread axis; its last entry is a figure's "many threads"
	maxThreads []int  // Fig 7's longer axis
	seed       uint64
}

func preset(slotsLog, fig2Log, lookupLog uint) scale {
	return scale{1 << slotsLog, 1 << fig2Log, 1 << lookupLog, []int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16}, 42}
}

var scales = map[string]scale{"small": preset(16, 14, 17), "medium": preset(21, 19, 21), "paper": preset(27, 24, 24)}

// tinyScale keeps TestEveryFigureCellRuns fast; no shape holds at this size.
var tinyScale = scale{1 << 12, 1 << 10, 1 << 12, []int{1, 2}, []int{1, 2, 4}, 7}

// metric is one named number a cell reports.
type metric struct {
	unit  string
	value float64
}

// cell is one point of a figure. run makes one whole run of it on a fresh
// table and returns the operations it made and its metrics, the cell's
// primary metric first.
type cell struct {
	name string
	run  func() (ops uint64, ms []metric)
}

// figures lists every figure's cell enumerator. Each is a benchmark below,
// and TestEveryFigureCellRuns runs them all.
type figure struct {
	name  string
	cells func(scale) []cell
}

var figures = []figure{
	{"Fig2", fig2}, {"Fig5a", fig5a}, {"Fig5b", fig5b}, {"Fig6", fig6}, {"Fig8", fig8}, {"Fig9", fig9},
	{"Fig10a", fig10a}, {"Fig10b", fig10b}, {"Memory", memory}, {"Latency", latency}, {"Eq1", eq1},
	{"Eq2", eq2}, {"Zipf", zipf}, {"Churn", churn}, {"Ceiling", ceiling},
}

func BenchmarkFig2(b *testing.B)    { runFigure(b, fig2) }
func BenchmarkFig5a(b *testing.B)   { runFigure(b, fig5a) }
func BenchmarkFig5b(b *testing.B)   { runFigure(b, fig5b) }
func BenchmarkFig6(b *testing.B)    { runFigure(b, fig6) }
func BenchmarkFig8(b *testing.B)    { runFigure(b, fig8) }
func BenchmarkFig9(b *testing.B)    { runFigure(b, fig9) }
func BenchmarkFig10a(b *testing.B)  { runFigure(b, fig10a) }
func BenchmarkFig10b(b *testing.B)  { runFigure(b, fig10b) }
func BenchmarkMemory(b *testing.B)  { runFigure(b, memory) }
func BenchmarkLatency(b *testing.B) { runFigure(b, latency) }
func BenchmarkEq1(b *testing.B)     { runFigure(b, eq1) }
func BenchmarkEq2(b *testing.B)     { runFigure(b, eq2) }
func BenchmarkZipf(b *testing.B)    { runFigure(b, zipf) }
func BenchmarkChurn(b *testing.B)   { runFigure(b, churn) }
func BenchmarkCeiling(b *testing.B) { runFigure(b, ceiling) }

// runFigure runs each of fig's cells as a sub-benchmark.
func runFigure(b *testing.B, fig func(scale) []cell) {
	sc, ok := scales[*scaleName]
	if !ok {
		b.Fatalf("-scale %q: want small, medium or paper", *scaleName)
	}
	for _, c := range fig(sc) {
		b.Run(c.name, func(b *testing.B) {
			var sum []metric
			runs := 0
			for ops := uint64(0); runs == 0 || ops < uint64(b.N); runs++ {
				n, ms := c.run()
				ops += n
				if sum == nil {
					sum = ms
					continue
				}
				for i := range ms {
					sum[i].value += ms[i].value
				}
			}
			b.ReportMetric(0, "ns/op")
			for _, m := range sum {
				b.ReportMetric(m.value/float64(runs), m.unit)
			}
		})
	}
}

// views are the paper's figures and tables that read another figure's
// cells rather than run their own: each keeps the cells of the figure it
// reads and the metric unit it reads off them (EXPERIMENTS.md).
var views = []struct {
	name, figure, unit string
	keep               func(sc scale, name string) bool
}{
	{"Fig1", "Fig6", "Mops/s", func(_ scale, n string) bool { return strings.Contains(n, "/"+mixName(workload.Mix5050)+"/") }},
	{"Fig6a", "Fig6", "Mops/s", func(scale, string) bool { return true }},
	{"Fig6b", "Fig6", "Mops/s@0.90-0.95", func(scale, string) bool { return true }},
	{"Fig7", "Fig6", "Mops/s", func(_ scale, n string) bool {
		return strings.HasPrefix(n, bench.CuckooPlusFG().Name+"/") || strings.HasPrefix(n, bench.TBB().Name+"/")
	}},
	{"Naive", "Fig2", "Mops/s", func(sc scale, n string) bool {
		return strings.HasSuffix(n, "/threads=1") || strings.HasSuffix(n, fmt.Sprintf("/threads=%d", last(sc.threads)))
	}},
	{"Probes", "Eq1", "P-invalid", func(sc scale, n string) bool { return n == fmt.Sprintf("BFS/threads=%d", last(sc.threads)) }},
}

// TestEveryFigureCellRuns runs every cell of every figure once at a tiny
// scale: each must report a finite, positive primary metric, under a name
// no other cell of its figure has. Then each view must find its cells in
// the figure it reads, each reporting its unit: finite, not negative, and
// positive for a throughput.
func TestEveryFigureCellRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("every figure's cells take seconds; skipped in -short")
	}
	ran := map[string][]metric{} // by figure + "/" + cell, for the views
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) {
			seen := map[string]bool{}
			for _, c := range f.cells(tinyScale) {
				if seen[c.name] {
					t.Fatalf("two cells named %s", c.name)
				}
				seen[c.name] = true
				_, ms := c.run()
				ran[f.name+"/"+c.name] = ms
				if len(ms) == 0 || !(ms[0].value > 0) || math.IsInf(ms[0].value, 0) {
					t.Errorf("%s: primary metric of %v", c.name, ms)
				}
			}
		})
	}
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			i := slices.IndexFunc(figures, func(f figure) bool { return f.name == v.figure })
			if i < 0 {
				t.Fatalf("no figure %s", v.figure)
			}
			kept := 0
			for _, c := range figures[i].cells(tinyScale) {
				if !v.keep(tinyScale, c.name) {
					continue
				}
				kept++
				ms, ok := ran[v.figure+"/"+c.name]
				if !ok { // its figure's subtest was not selected
					_, ms = c.run()
				}
				j := slices.IndexFunc(ms, func(m metric) bool { return m.unit == v.unit })
				if j < 0 {
					t.Errorf("%s/%s reports no %s: %v", v.figure, c.name, v.unit, ms)
					continue
				}
				x := ms[j].value
				if !(x >= 0) || math.IsInf(x, 0) || (strings.HasPrefix(v.unit, "Mops/s") && x == 0) {
					t.Errorf("%s/%s: %s of %v", v.figure, c.name, v.unit, x)
				}
			}
			if kept == 0 {
				t.Errorf("no cell of %s", v.figure)
			}
		})
	}
}

// The fill figures' mixes and load windows.
var (
	mixes      = []workload.Mix{workload.InsertOnly, workload.Mix5050, workload.Mix1090}
	fillBounds = []float64{0, 0.75, 0.90, 0.95}
)

func mixName(m workload.Mix) string { return fmt.Sprintf("%d%%ins", int(m.InsertFrac*100+0.5)) }

func last(xs []int) int { return xs[len(xs)-1] }

// fillCell fills a fresh table of s, with values of vw words, by spec. It
// reports Mops/s over the whole fill; then, if spec has windows, Mops/s in
// each window between consecutive bounds and in the first-to-last one;
// then, for an elided table, its abort rate, the share of its executions
// that took the fallback lock, and its fallback and capacity-abort counts.
func fillCell(name string, s bench.Scheme, vw int, spec bench.FillSpec) cell {
	return cell{name, func() (uint64, []metric) {
		res := bench.Fill(s.New(spec.Slots, vw, spec.Threads, spec.Seed), spec)
		ms := []metric{{"Mops/s", res.Overall}}
		w := spec.WindowBounds
		for i := 1; i < len(w); i++ {
			ms = append(ms, window(res, w[i-1], w[i]))
		}
		if len(w) > 2 {
			ms = append(ms, window(res, w[0], w[len(w)-1]))
		}
		if tx := res.Tx; tx != nil {
			ms = append(ms, metric{"abort-rate", tx.AbortRate()},
				metric{"fallback-frac", float64(tx.Fallbacks) / float64(max(tx.Commits+tx.Fallbacks, 1))},
				metric{"fallbacks", float64(tx.Fallbacks)}, metric{"capacity-aborts", float64(tx.CapacityAborts)})
		}
		return res.Ops, ms
	}}
}

func window(res bench.RunResult, lo, hi float64) metric {
	key := fmt.Sprintf("%.2f-%.2f", lo, hi)
	return metric{"Mops/s@" + key, res.Windows[key]}
}

// loadCell is s at mix by threads writers, from empty to load 0.95 of
// sc.slots, timed over bounds' windows.
func loadCell(s bench.Scheme, mix workload.Mix, threads int, sc scale, bounds []float64) cell {
	return fillCell(fmt.Sprintf("%s/%s/threads=%d", s.Name, mixName(mix), threads), s, 1, bench.FillSpec{
		Threads: threads, Mix: mix, TargetLoad: 0.95, Slots: sc.slots, Seed: sc.seed, WindowBounds: bounds,
	})
}

// fig2 is Fig 2 and §2.3's table in one: sc.fig2Keys inserts into 8× as
// many slots (the paper's 16M keys into 134M) by each thread count, for
// tables with one writer at a time. §2.3's 1-thread and many-thread
// columns are the threads=1 and last cells, its abort rate and fallback
// fraction the elided cells' abort-rate and fallback-frac.
func fig2(sc scale) []cell {
	slots := sc.fig2Keys * 8
	var cells []cell
	for _, s := range []bench.Scheme{
		bench.Memc3TSX("cuckoo with TSX", htm.PolicyGlibc, 4),
		bench.Memc3(4),
		bench.DenseTSX("dense_hash_map with TSX", htm.PolicyGlibc),
		bench.LockWrapped("dense_hash_map with lock", bench.Dense()),
		bench.UnorderedTSX("unordered_map with TSX", htm.PolicyGlibc),
		bench.LockWrapped("unordered_map with lock", bench.Unordered()),
	} {
		for _, th := range sc.threads {
			cells = append(cells, fillCell(fmt.Sprintf("%s/threads=%d", s.Name, th), s, 1, bench.FillSpec{
				Threads: th, Mix: workload.InsertOnly, TargetLoad: float64(sc.fig2Keys) / float64(slots), Slots: slots, Seed: sc.seed,
			}))
		}
	}
	return cells
}

// fig5a is Fig 5a, the 1-thread insert factor analysis over fillBounds'
// windows: DFS, then +BFS, both under the global lock without prefetch.
// "+prefetch" is Fig6's cuckoo+/100%ins/threads=1.
func fig5a(sc scale) []cell {
	return []cell{
		loadCell(bench.CuckooPlusVariant("cuckoo+ DFS no-prefetch", core.LockGlobal, core.SearchDFS, false), workload.InsertOnly, 1, sc, fillBounds),
		loadCell(bench.CuckooPlusVariant("cuckoo+ no-prefetch", core.LockGlobal, core.SearchBFS, false), workload.InsertOnly, 1, sc, fillBounds),
	}
}

// fig5b is Fig 5b, the insert factor analysis by the last thread count in
// both cumulative orders, over fillBounds' windows. Four of its rows are
// Fig6's 100%ins cells: both orders start at cuckoo and end at cuckoo+
// with TSX, elision-first's "+TSX*" is cuckoo with TSX and
// algorithm-first's "+BFS w/ prefetch" is cuckoo+. Its cells are the other
// four:
// elision-first's "+TSX-glibc" and "+lock later", then algorithm-first's
// "+lock later" and "+TSX-glibc".
func fig5b(sc scale) []cell {
	var cells []cell
	for _, s := range []bench.Scheme{
		bench.Memc3TSX("cuckoo with TSX-glibc", htm.PolicyGlibc, 8),
		bench.CuckooPlusTSX("cuckoo+ with TSX DFS no-prefetch", htm.PolicyTuned, core.SearchDFS, false),
		bench.CuckooPlusVariant("cuckoo+ DFS no-prefetch", core.LockGlobal, core.SearchDFS, false),
		bench.CuckooPlusTSX("cuckoo+ with TSX-glibc", htm.PolicyGlibc, core.SearchBFS, true),
	} {
		cells = append(cells, loadCell(s, workload.InsertOnly, last(sc.threads), sc, fillBounds))
	}
	return cells
}

// fig6 is one fill matrix that four figures read. Fig 6a is each cell's
// Mops/s (the whole 0-0.95 fill), Fig 6b its Mops/s@0.90-0.95, Fig 7 the
// fine-grained and TBB rows, whose thread axis runs to sc.maxThreads (the
// paper's 16-core Xeon had no TSX), and Fig 1 each table's best 50%ins
// cell and its thread count; unordered_map and dense_hash_map, which are
// not thread-safe, have one 1-thread 50%ins cell each.
func fig6(sc scale) []cell {
	var cells []cell
	for _, r := range []struct {
		s       bench.Scheme
		threads []int
	}{
		{bench.Memc3(8), sc.threads},
		{bench.Memc3TSX("cuckoo with TSX", htm.PolicyTuned, 8), sc.threads},
		{bench.CuckooPlusGlobal(), sc.threads},
		{bench.CuckooPlusTSX("cuckoo+ with TSX", htm.PolicyTuned, core.SearchBFS, true), sc.threads},
		{bench.CuckooPlusFG(), sc.maxThreads},
		{bench.TBB(), sc.maxThreads},
	} {
		for _, mix := range mixes {
			for _, th := range r.threads {
				cells = append(cells, loadCell(r.s, mix, th, sc, fillBounds))
			}
		}
	}
	return append(cells, loadCell(bench.Unordered(), workload.Mix5050, 1, sc, fillBounds),
		loadCell(bench.Dense(), workload.Mix5050, 1, sc, fillBounds))
}

// fig8 is Fig 8: lookups of present keys at load 0.95 by the last thread
// count, at 4, 8 and 16 ways. It runs on the fine-grained table, not the
// paper's elided one: the emulated transaction's per-operation cost would
// hide the per-way scan cost the figure measures (DESIGN.md §2).
func fig8(sc scale) []cell {
	th := last(sc.threads)
	var cells []cell
	for _, assoc := range []int{4, 8, 16} {
		s := bench.CuckooPlusAssoc(assoc, fmt.Sprintf("%d-way", assoc))
		cells = append(cells, cell{fmt.Sprintf("%s/threads=%d", s.Name, th), func() (uint64, []metric) {
			tab := s.New(sc.slots, 1, th, sc.seed)
			counts := bench.PreFill(tab, sc.slots, 0.95, 8, sc.seed)
			res := bench.Lookups(tab, bench.LookupSpec{Threads: th, OpsPerThread: sc.lookupOps, Seed: sc.seed}, counts)
			return res.Ops, []metric{{"Mops/s", res.Overall}}
		}})
	}
	return cells
}

// fig9 is Fig 9: fills at each mix by the last thread count at 4, 8 and
// 16 ways (the fine-grained table, as in Fig 8), timed in every tenth of
// load from 0.30.
func fig9(sc scale) []cell {
	bounds := []float64{0, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95}
	var cells []cell
	for _, mix := range mixes {
		for _, assoc := range []int{4, 8, 16} {
			cells = append(cells, loadCell(bench.CuckooPlusAssoc(assoc, fmt.Sprintf("%d-way", assoc)), mix, last(sc.threads), sc, bounds))
		}
	}
	return cells
}

// fig10a is Fig 10a: cuckoo+ with TSX holding sc.slots/4 entries at load
// 0.95 whatever the value size, at 8 to 256 B values: inserts by the last
// thread count, by 4 threads (or fewer, if that is the last) and by one;
// 10% inserts by the last thread count and by one.
func fig10a(sc scale) []cell {
	entries := sc.slots / 4
	slots := entries * 100 / 95
	s := bench.CuckooPlusTSX("cuckoo+ with TSX", htm.PolicyTuned, core.SearchBFS, true)
	maxT := last(sc.threads)
	var cells []cell
	for _, r := range []struct {
		mix     workload.Mix
		threads []int
	}{{workload.InsertOnly, slices.Compact([]int{maxT, min(4, maxT), 1})}, {workload.Mix1090, slices.Compact([]int{maxT, 1})}} {
		for _, th := range r.threads {
			for _, vw := range []int{1, 2, 4, 8, 16, 32} {
				cells = append(cells, fillCell(fmt.Sprintf("%s/threads=%d/%dB", mixName(r.mix), th, vw*8), s, vw, bench.FillSpec{
					Threads: th, Mix: r.mix, TargetLoad: float64(entries) / float64(slots), Slots: slots, Seed: sc.seed,
				}))
			}
		}
	}
	return cells
}

// fig10b is Fig 10b: a table of a fixed size (16 B a slot at 8 B values,
// so fewer slots as values grow, never under 1 024) filled to load 0.90,
// at 8 B to 1 KB values: fine-grained locking against elision.
func fig10b(sc scale) []cell {
	fg := bench.CuckooPlusFG()
	tsx := bench.CuckooPlusTSX("cuckoo+ with TSX", htm.PolicyTuned, core.SearchBFS, true)
	maxT := last(sc.threads)
	var cells []cell
	for _, r := range []struct {
		s       bench.Scheme
		mix     workload.Mix
		threads int
	}{
		{fg, workload.InsertOnly, maxT}, {tsx, workload.InsertOnly, maxT}, {tsx, workload.InsertOnly, 1},
		{tsx, workload.Mix1090, maxT}, {tsx, workload.Mix1090, 1},
	} {
		for _, vw := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
			slots := max(sc.slots*2/uint64(1+vw), 1024)
			cells = append(cells, fillCell(fmt.Sprintf("%s/%s/threads=%d/%dB", r.s.Name, mixName(r.mix), r.threads, vw*8), r.s, vw, bench.FillSpec{
				Threads: r.threads, Mix: r.mix, TargetLoad: 0.90, Slots: slots, Seed: sc.seed,
			}))
		}
	}
	return cells
}

// memory is §6.2's memory claim, that TBB used "2× to 3× more memory than
// cuckoo hash table": sc.slots·0.95 sequential 8 B/8 B entries in each
// table, reported as B/entry by the table's own footprint and as
// heap-B/entry by the Go heap's growth across the build. A table's ratio
// to cuckoo+ is its B/entry over the cuckoo+ cell's.
func memory(sc scale) []cell {
	n := sc.slots * 95 / 100
	build := func(name string, fill func() (footprint, entries uint64, keep any)) cell {
		return cell{name, func() (uint64, []metric) {
			before := heapInUse()
			footprint, entries, keep := fill()
			grown := int64(heapInUse()) - int64(before) // < 0 if unrelated garbage went meanwhile
			runtime.KeepAlive(keep)
			return entries, []metric{{"B/entry", float64(footprint) / float64(entries)}, {"heap-B/entry", float64(max(grown, 0)) / float64(entries)}}
		}}
	}
	return []cell{
		build("cuckoo+ 8-way", func() (uint64, uint64, any) {
			o := core.Defaults(sc.slots)
			o.Seed = sc.seed
			tab := core.MustNewTable(o)
			insertSeq(n, tab.Insert)
			return tab.MemoryFootprint(), tab.Len(), tab
		}),
		build("TBB chained", func() (uint64, uint64, any) {
			o := chained.Defaults(n, true)
			o.Seed = sc.seed
			m := chained.MustNew(o)
			insertSeq(n, func(k, v uint64) error { m.Put(k, v); return nil })
			return m.MemoryFootprint(), m.Len(), m
		}),
		build("dense_hash_map", func() (uint64, uint64, any) {
			m := openaddr.New(2*n, sc.seed, 0.5, false)
			insertSeq(n, m.Put)
			return m.MemoryFootprint(), m.Len(), m
		}),
	}
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// insertSeq puts the keys 1..n, key i with value i-1, and stops at the
// first error.
func insertSeq(n uint64, put func(k, v uint64) error) {
	for i := uint64(0); i < n && put(i+1, i) == nil; i++ {
	}
}

// latencySamples is how many operations latency times per quantile set.
const latencySamples = 200_000

// latency is the per-operation latency of a 1-thread fine-grained cuckoo+
// table at load 0.50 and 0.94. The paper reports throughput only, but
// §4.1's lookups that are "both fast and predictable" make a tail-latency
// claim. Each cell times lookups of present keys, then inserts of fresh
// keys, each deleted again so the load holds.
func latency(sc scale) []cell {
	var cells []cell
	for i, pct := range []uint64{50, 94} {
		cells = append(cells, cell{fmt.Sprintf("load=0.%d", pct), func() (uint64, []metric) {
			o := core.Defaults(sc.slots)
			o.Seed = sc.seed
			tab := core.MustNewTable(o)
			insertSeq(tab.Cap()*pct/100, tab.Insert)
			n, fresh := tab.Len(), uint64(1)<<(40+i)
			ms := timeOps("lookup", func(j uint64) { tab.Lookup(j%n + 1) })
			ms = append(ms, timeOps("insert", func(j uint64) { _ = tab.Insert(fresh|j, 0); tab.Delete(fresh | j) })...)
			return 2 * latencySamples, ms
		}})
	}
	return cells
}

// timeOps times latencySamples calls of op, and reports their median,
// p99, p99.9 and mean in ns under units prefixed with what.
func timeOps(what string, op func(i uint64)) []metric {
	var h metrics.Histogram
	for i := uint64(0); i < latencySamples; i++ {
		t0 := time.Now()
		op(i)
		h.Record(uint64(time.Since(t0)))
	}
	return []metric{{what + "-ns-p50", float64(h.Quantile(0.50))}, {what + "-ns-p99", float64(h.Quantile(0.99))},
		{what + "-ns-p99.9", float64(h.Quantile(0.999))}, {what + "-ns-mean", h.Mean()}}
}

// eq1 is Eq. 1 (Appendix B) and the table's probe counters: the last
// thread count of writers fill a fine-grained table to load 0.95, each
// stopping at its first refusal, by DFS and by BFS. A cell reports the
// fill's Mops/s; the measured path-invalidation rate P-invalid (restarts
// per search) and its bound 1-((N-L)/N)^(L(T-1)), P-invalid-max, which
// takes every path at the longest length found, L; that L; the search,
// displacement and stripe-lock counters; and how many paths had each
// length up to Eq. 2's BFS bound, and above it.
func eq1(sc scale) []cell {
	th := last(sc.threads)
	var cells []cell
	for _, m := range []struct {
		name string
		mode core.SearchMode
	}{{"DFS", core.SearchDFS}, {"BFS", core.SearchBFS}} {
		cells = append(cells, cell{fmt.Sprintf("%s/threads=%d", m.name, th), func() (uint64, []metric) {
			o := core.Defaults(sc.slots)
			o.Seed = sc.seed
			o.Search = m.mode
			tab := core.MustNewTable(o)
			start := time.Now()
			fill95(tab, th, sc.seed)
			mops := metrics.Throughput(tab.Len(), time.Since(start))
			st, ls := tab.Stats(), tab.LockStats()
			n, l := float64(tab.Cap()), float64(st.MaxPathLen)
			ms := []metric{{"Mops/s", mops},
				{"P-invalid", float64(st.PathRestarts) / float64(max(st.Searches, 1))},
				{"P-invalid-max", 1 - math.Pow((n-l)/n, l*float64(th-1))}, {"max-path-len", l},
				{"searches", float64(st.Searches)}, {"displacements", float64(st.Displacements)},
				{"path-restarts", float64(st.PathRestarts)}, {"lock-acquisitions", float64(ls.Acquisitions)},
				{"lock-contended", float64(ls.Contended)}, {"lock-yields", float64(ls.Yields)},
				{"lock-contention-rate", ls.ContentionRate()}}
			bound := core.MaxBFSPathLen(o.Assoc, o.MaxSearchSlots)
			var longer uint64
			for i, c := range st.PathLenHist {
				if i <= bound {
					ms = append(ms, metric{fmt.Sprintf("paths@len=%d", i), float64(c)})
				} else {
					longer += c
				}
			}
			return tab.Len(), append(ms, metric{fmt.Sprintf("paths@len>%d", bound), float64(longer)})
		}})
	}
	return cells
}

// fill95 fills tab to 95% with threads concurrent writers, so that most
// late inserts need a cuckoo path; a writer stops at its first refusal.
func fill95(tab *core.Table, threads int, seed uint64) {
	quota := uint64(0.95*float64(tab.Cap())) / uint64(threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			gen := workload.NewUniformKeys(seed, th)
			for i := uint64(0); i < quota; i++ {
				if err := tab.Insert(gen.NextKey(), i); err != nil {
					return
				}
			}
		}(th)
	}
	wg.Wait()
}

// eq2 is Eq. 2 (Appendix C): sequential keys into a BFS table of
// sc.slots/4 slots with M = 2000 until its first refusal, at B = 2, 4, 8
// and 16. A cell reports the longest path found and the bound
// ceil(log_B(M/2 - M/2B + 1)).
func eq2(sc scale) []cell {
	const m = 2000
	var cells []cell
	for _, assoc := range []int{2, 4, 8, 16} {
		cells = append(cells, cell{fmt.Sprintf("B=%d", assoc), func() (uint64, []metric) {
			o := core.Defaults(sc.slots / 4)
			o.Assoc = assoc
			for o.Buckets = 2; o.Buckets*uint64(assoc) < sc.slots/4; o.Buckets <<= 1 {
			}
			o.MaxSearchSlots = m
			o.Seed = sc.seed
			tab := core.MustNewTable(o)
			insertSeq(math.MaxUint64, tab.Insert)
			return tab.Len(), []metric{{"max-path-len", float64(tab.Stats().MaxPathLen)},
				{"max-path-len-bound", float64(core.MaxBFSPathLen(assoc, m))}}
		}})
	}
	return cells
}

// zipf goes beyond the paper's uniform keys: the last thread count of
// threads each make sc.lookupOps operations, half upserts and half
// lookups, over sc.slots/2 keys drawn uniformly or by zipf(0.99), on
// fine-grained cuckoo+ and the chained table. Skew puts the hot keys on a
// few stripes and buckets, which the two tables lock differently.
func zipf(sc scale) []cell {
	th, universe := last(sc.threads), sc.slots/2
	var cells []cell
	for _, s := range []bench.Scheme{bench.CuckooPlusFG(), bench.TBB()} {
		for _, skew := range []string{"uniform", "zipf-0.99"} {
			cells = append(cells, cell{fmt.Sprintf("%s/%s/threads=%d", s.Name, skew, th), func() (uint64, []metric) {
				tab := s.New(sc.slots, 1, th, sc.seed)
				ops, mops := parallelMops(th, func(t int) uint64 {
					var key func() uint64
					if skew == "uniform" {
						rnd := workload.NewRand(sc.seed + uint64(t))
						key = func() uint64 { return hashfn.SplitMix64(rnd.Intn(universe)) }
					} else {
						key = workload.NewZipfKeys(sc.seed+uint64(t), universe, 0.99).ExistingKey
					}
					rnd := workload.NewRand(uint64(t) + 11)
					for i := uint64(0); i < sc.lookupOps; i++ {
						k := key()
						if rnd.Intn(2) == 1 {
							tab.Lookup(k)
						} else if err := tab.Insert(k, i); err != nil && !errors.Is(err, core.ErrExists) {
							return i // full; a present key is a hot one, its insert an overwrite
						}
					}
					return sc.lookupOps
				})
				return ops, []metric{{"Mops/s", mops}}
			}})
		}
	}
	return cells
}

// churn is the use mode §6.3 singles out, inserts and deletes "at high
// occupancy": the last thread count of threads fill their own keys to a
// load, then each makes sc.lookupOps/8 delete-and-insert pairs on them, so
// the load stays put and every insert pays that load's path search.
func churn(sc scale) []cell {
	th := last(sc.threads)
	var cells []cell
	for _, s := range []bench.Scheme{
		bench.CuckooPlusFG(),
		bench.CuckooPlusVariant("cuckoo+ DFS", core.LockStriped, core.SearchDFS, false),
		bench.TBB(),
	} {
		for _, pct := range []uint64{50, 75, 90, 95} {
			cells = append(cells, cell{fmt.Sprintf("%s/load=0.%d/threads=%d", s.Name, pct, th), func() (uint64, []metric) {
				tab := s.New(sc.slots, 1, th, sc.seed)
				gens, live := make([]*workload.UniformKeys, th), make([][]uint64, th)
				for t := range gens {
					gens[t] = workload.NewUniformKeys(sc.seed, t)
					for i := uint64(0); i < sc.slots*pct/100/uint64(th); i++ {
						k := gens[t].NextKey()
						if tab.Insert(k, i) != nil {
							break
						}
						live[t] = append(live[t], k)
					}
				}
				pairs := max(sc.lookupOps/8, 1)
				ops, mops := parallelMops(th, func(t int) uint64 {
					rnd, mine, done := workload.NewRand(sc.seed^uint64(t)*131), live[t], uint64(0)
					for i := uint64(0); i < pairs && len(mine) > 0; i++ {
						victim := rnd.Intn(uint64(len(mine)))
						tab.Delete(mine[victim])
						k := gens[t].NextKey()
						if tab.Insert(k, i) != nil {
							continue // another writer took the slot; the next pair deletes another key
						}
						mine[victim] = k
						done += 2
					}
					return done
				})
				return ops, []metric{{"Mops/s", mops}}
			}})
		}
	}
	return cells
}

// parallelMops runs body(t) for t in [0, threads) in as many goroutines
// and returns the operations they report and their Mops/s.
func parallelMops(threads int, body func(t int) uint64) (uint64, float64) {
	var ops atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ops.Add(body(t))
		}(t)
	}
	wg.Wait()
	return ops.Load(), metrics.Throughput(ops.Load(), time.Since(start))
}

var ceilingSink atomic.Uint64

// ceiling is the host's own scaling ceiling, in 1 and GOMAXPROCS
// goroutines. threads=N is a register-only loop, one LCG step an operation
// with no memory traffic: the two cells' Mops/s ratio bounds what any cell
// at that thread count can scale by on the host while the run lasts.
// store/ and load/ are random 8-byte stores, and loads, over one shared
// array as large as the figure's table (16 B a slot, sc.slots slots), an
// address an LCG step: a write-heavy cell is read against the store
// ceiling at its own size, where cache lines travel between cores. A
// goroutine stores only to the words it owns (index ≡ t mod N), so stores
// share lines but never a word.
func ceiling(sc scale) []cell {
	var cells []cell
	threads := slices.Compact([]int{1, runtime.GOMAXPROCS(0)})
	for _, th := range threads {
		cells = append(cells, cell{fmt.Sprintf("threads=%d", th), func() (uint64, []metric) {
			ops, mops := parallelMops(th, func(t int) uint64 {
				const steps = 1 << 23
				x := uint64(t)
				for range steps {
					x = x*6364136223846793005 + 1442695040888963407
				}
				ceilingSink.Add(x)
				return steps
			})
			return ops, []metric{{"Mops/s", mops}}
		}})
	}
	var mem []uint64
	for _, store := range []bool{true, false} {
		for _, th := range threads {
			op := "load"
			if store {
				op = "store"
			}
			cells = append(cells, cell{fmt.Sprintf("%s/threads=%d", op, th), func() (uint64, []metric) {
				if mem == nil {
					mem = make([]uint64, 2*sc.slots)
				}
				ops, mops := parallelMops(th, func(t int) uint64 {
					const steps = 1 << 22
					per, x, sum := uint64(len(mem)/th), uint64(t)+1, uint64(0)
					for range steps {
						x = x*6364136223846793005 + 1442695040888963407
						j, _ := bits.Mul64(x, per)
						if i := j*uint64(th) + uint64(t); store {
							mem[i] = x
						} else {
							sum += mem[i]
						}
					}
					ceilingSink.Add(sum)
					return steps
				})
				return ops, []metric{{"Mops/s", mops}}
			}})
		}
	}
	return cells
}

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
// one), and it reports the time per insert, and the time and the path
// searches per insert over each fill's final tenth (ns/insert-last-decile
// and searches/insert-last-decile, the dense end where inserts search
// paths). b.N only says when to stop, so ns/op is suppressed.
func BenchmarkAblationPrefetch(b *testing.B) {
	const slots = 1 << 22
	n := uint64(slots) * 95 / 100
	for _, pf := range []bool{true, false} {
		b.Run(fmt.Sprintf("prefetch=%v", pf), func(b *testing.B) {
			var inserts, last, lastSearches uint64
			var took, lastTook time.Duration
			for inserts < uint64(b.N) {
				o := core.Defaults(slots)
				o.Prefetch = pf
				tab := core.MustNewTable(o)
				var mark time.Time
				var searches uint64
				start := time.Now()
				for j := range n {
					if j == n-n/10 {
						searches = tab.Stats().Searches
						mark = time.Now()
					}
					if err := tab.Insert(largeKey(j), j); err != nil {
						b.Fatal(err)
					}
				}
				end := time.Now()
				inserts, took = inserts+n, took+end.Sub(start)
				last, lastTook = last+n/10, lastTook+end.Sub(mark)
				lastSearches += tab.Stats().Searches - searches
			}
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(float64(took.Nanoseconds())/float64(inserts), "ns/insert")
			b.ReportMetric(float64(lastTook.Nanoseconds())/float64(last), "ns/insert-last-decile")
			b.ReportMetric(float64(lastSearches)/float64(last), "searches/insert-last-decile")
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
