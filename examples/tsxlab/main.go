// Tsxlab walks through the paper's hardware-transactional-memory findings
// (§2.3 and §5) on the emulated TSX substrate:
//
//  1. Naive lock elision on an unoptimized table does not scale — long
//     transactions conflict, overflow capacity, and convoy on the fallback
//     lock.
//  2. The algorithmic optimizations (lock-later + BFS) shrink the
//     transactional footprint to a handful of lines, so the same elision
//     machinery suddenly works.
//  3. The retry policy matters: the paper's tuned TSX* policy beats the
//     released glibc policy by retrying more aggressively.
//
// Run it and read the abort-rate table; on a multi-core machine the
// differences are dramatic, on a single core they shrink (transactions
// serialize naturally) but the footprint numbers still tell the story.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"cuckoohash/internal/core"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

type result struct {
	name     string
	mops     float64
	stats    htm.Stats
	fallback float64
}

func run(name string, threads int, perThread uint64, insert func(th int, key, val uint64) error, stats func() htm.Stats) result {
	var wg sync.WaitGroup
	start := time.Now()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			gen := workload.NewUniformKeys(42, th)
			for i := uint64(0); i < perThread; i++ {
				if err := insert(th, gen.NextKey(), i); err != nil {
					return
				}
			}
		}(th)
	}
	wg.Wait()
	elapsed := time.Since(start)
	s := stats()
	fb := 0.0
	if total := s.Commits + s.Fallbacks; total > 0 {
		fb = float64(s.Fallbacks) / float64(total)
	}
	return result{
		name:     name,
		mops:     float64(uint64(threads)*perThread) / elapsed.Seconds() / 1e6,
		stats:    s,
		fallback: fb,
	}
}

func main() {
	threads := flag.Int("threads", 8, "concurrent writer goroutines")
	keys := flag.Uint64("keys", 20_000, "inserts per writer")
	flag.Parse()

	// Size the tables so the measured inserts run between ~80% and ~95%
	// occupancy: that is where cuckoo-path searches happen, and where the
	// unoptimized design's transactional footprint explodes. Tables round
	// capacity up to a power of two, so prefill against the actual Cap.
	measured := uint64(*threads) * *keys
	slots := measured * 100 / 15
	cfg := htm.DefaultConfig()

	// prefill fills to cap-15% so the measured phase ends near 95%.
	prefill := func(cap uint64, insert func(k, v uint64) error) {
		gen := workload.NewUniformKeys(7, 1<<20)
		target := cap*95/100 - measured
		for i := uint64(0); i < target; i++ {
			if insert(gen.NextKey(), i) != nil {
				return
			}
		}
	}

	fmt.Printf("emulated TSX lab: %d writers x %d inserts, GOMAXPROCS=%d\n\n",
		*threads, *keys, runtime.GOMAXPROCS(0))

	var results []result

	// 1. Unoptimized cuckoo (whole Algorithm 1 in one transaction).
	for _, p := range []htm.Policy{htm.PolicyNone, htm.PolicyGlibc, htm.PolicyTuned} {
		// MemC3's table: 4-way buckets, its random-walk search, and the
		// writer lock (here, the one transaction) taken before the search.
		o := core.Defaults(slots)
		o.Assoc, o.Buckets = 4, 2*o.Buckets
		o.Locking, o.Search, o.Prefetch = core.LockEarly, core.SearchDFS, false
		tab := core.MustNewTxTable(o, p, cfg)
		prefill(tab.Cap(), tab.Insert)
		tab.Region().ResetStats()
		results = append(results, run(
			fmt.Sprintf("unoptimized cuckoo + %s", p),
			*threads, *keys,
			func(_ int, k, v uint64) error { return tab.Insert(k, v) },
			func() htm.Stats { return tab.Region().Stats() },
		))
	}

	// 2. Optimized cuckoo+ (search outside the transaction, BFS paths).
	for _, p := range []htm.Policy{htm.PolicyGlibc, htm.PolicyTuned} {
		o := core.Defaults(slots)
		tab := core.MustNewTxTable(o, p, cfg)
		prefill(tab.Cap(), tab.Insert)
		tab.Region().ResetStats()
		results = append(results, run(
			fmt.Sprintf("cuckoo+ + %s", p),
			*threads, *keys,
			func(_ int, k, v uint64) error { return tab.Insert(k, v) },
			func() htm.Stats { return tab.Region().Stats() },
		))
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "configuration\tMops/s\tabort rate\tcapacity aborts\tfallback frac\tavg lines/txn (r+w)")
	for _, r := range results {
		rd, wr := r.stats.AvgFootprint()
		fmt.Fprintf(w, "%s\t%.2f\t%.1f%%\t%d\t%.1f%%\t%.1f + %.1f\n",
			r.name, r.mops, 100*r.stats.AbortRate(), r.stats.CapacityAborts, 100*r.fallback, rd, wr)
	}
	w.Flush()

	fmt.Println("\nreading the table:")
	fmt.Println(" - 'lock' never speculates: its throughput is the serialized baseline (§2.3's global lock)")
	fmt.Println(" - unoptimized + elision aborts on capacity (the DFS search drags hundreds of lines")
	fmt.Println("   into the read set) and convoys on the fallback lock")
	fmt.Println(" - cuckoo+ transactions touch ~a dozen lines, so elision commits speculatively;")
	fmt.Println("   tsx* retries harder than tsx-glibc and falls back less (Appendix A)")
	fmt.Println(" - the footprint column is deterministic: the unoptimized insert drags its whole")
	fmt.Println("   DFS search into the transaction, cuckoo+ only the few displacement writes")
}
