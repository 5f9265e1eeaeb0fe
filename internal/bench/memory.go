package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cuckoohash/internal/chained"
	"cuckoohash/internal/core"
	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/openaddr"
	"cuckoohash/internal/workload"
)

// Memory reproduces the paper's memory-efficiency claim (§6.2 / Fig. 6
// caption): for small key-value items the chained TBB-style table uses
// "2× to 3× more memory than cuckoo hash table" (6 GB vs 2 GB at paper
// scale). We measure both the analytic footprint of each table's data
// structures and the Go heap delta from actually building them.
func Memory(sc Scale) *Report {
	r := &Report{
		ID:      "memory",
		Title:   "Memory per entry at 95% (cuckoo) / presized (others)",
		Unit:    "bytes/entry",
		Columns: []string{"analytic B/entry", "heap B/entry", "ratio vs cuckoo+"},
	}
	n := sc.Slots * 95 / 100

	type build struct {
		name string
		// fill builds and loads the table; keep holds it live so the heap
		// delta can be read before the GC reclaims it.
		fill func() (analytic uint64, entries uint64, keep any)
	}
	builds := []build{
		{"cuckoo+ (8-way)", func() (uint64, uint64, any) {
			o := core.Defaults(sc.Slots)
			o.Seed = sc.Seed
			tab := core.MustNewTable(o)
			gen := workload.NewSequentialKeys(1)
			for i := uint64(0); i < n; i++ {
				if err := tab.Insert(gen.NextKey(), i); err != nil {
					break
				}
			}
			return tab.MemoryFootprint(), tab.Len(), tab
		}},
		{"TBB chained", func() (uint64, uint64, any) {
			o := chained.Defaults(n, true)
			o.Seed = sc.Seed
			m := chained.MustNew(o)
			gen := workload.NewSequentialKeys(1)
			for i := uint64(0); i < n; i++ {
				m.Put(gen.NextKey(), i)
			}
			return m.MemoryFootprint(), m.Len(), m
		}},
		{"dense_hash_map", func() (uint64, uint64, any) {
			m := openaddr.New(2*n, sc.Seed, 0.5, false)
			gen := workload.NewSequentialKeys(1)
			for i := uint64(0); i < n; i++ {
				if err := m.Put(gen.NextKey(), i); err != nil {
					break
				}
			}
			return m.MemoryFootprint(), m.Len(), m
		}},
	}

	var cuckooPer float64
	for _, b := range builds {
		heapBefore := heapInUse()
		analytic, entries, keep := b.fill()
		heapAfter := heapInUse()
		runtime.KeepAlive(keep)
		if entries == 0 {
			continue
		}
		analyticPer := float64(analytic) / float64(entries)
		heapPer := float64(int64(heapAfter)-int64(heapBefore)) / float64(entries)
		if heapPer < 0 {
			heapPer = 0 // unrelated allocations were reclaimed mid-measurement
		}
		if cuckooPer == 0 {
			cuckooPer = analyticPer
		}
		r.AddRow(b.name, analyticPer, heapPer, analyticPer/cuckooPer)
	}
	r.AddNote("paper: TBB used 2-3x more memory (6 GB vs cuckoo's 2 GB) for 8 B/8 B items")
	return r
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// Latency measures per-operation latency distributions for the cuckoo+
// table at moderate and high occupancy — the paper reports throughput
// only, but "Lookup operations are both fast and predictable, always
// checking 2B keys" (§4.1) is fundamentally a tail-latency claim, so the
// harness records it.
func Latency(sc Scale) *Report {
	r := &Report{
		ID:      "latency",
		Title:   "Per-op latency (cuckoo+ fine-grained, 1 thread)",
		Unit:    "ns",
		Columns: []string{"p50", "p99", "p99.9", "mean"},
	}
	o := core.Defaults(sc.Slots)
	o.Seed = sc.Seed
	tab := core.MustNewTable(o)
	gen := workload.NewSequentialKeys(1)

	measure := func(name string, op func(i uint64)) {
		var h metrics.Histogram
		const samples = 200_000
		for i := uint64(0); i < samples; i++ {
			t0 := time.Now()
			op(i)
			h.Record(uint64(time.Since(t0)))
		}
		r.AddRow(name,
			float64(h.Quantile(0.50)),
			float64(h.Quantile(0.99)),
			float64(h.Quantile(0.999)),
			h.Mean(),
		)
	}

	// Fill to 50%, measure, then to 95%, measure again.
	half := tab.Cap() / 2
	for tab.Len() < half {
		if err := tab.Insert(gen.NextKey(), 0); err != nil {
			break
		}
	}
	keysAtHalf := tab.Len()
	measure("lookup @0.50", func(i uint64) { tab.Lookup(i%keysAtHalf + 1) })
	measure("insert @0.50", func(i uint64) {
		k := uint64(1)<<40 | i
		_ = tab.Insert(k, 0)
		tab.Delete(k) // keep occupancy stable across samples
	})

	target := tab.Cap() * 94 / 100
	for tab.Len() < target {
		if err := tab.Insert(gen.NextKey(), 0); err != nil {
			break
		}
	}
	keysAtFull := tab.Len()
	measure("lookup @0.94", func(i uint64) { tab.Lookup(i%keysAtFull + 1) })
	measure("insert @0.94", func(i uint64) {
		k := uint64(1)<<41 | i
		_ = tab.Insert(k, 0)
		tab.Delete(k) // keep occupancy stable
	})
	r.AddNote("lookup tail should stay flat across occupancy (bounded 2B-slot scans); insert tail grows with path length")
	return r
}

// Zipf is an extension experiment beyond the paper's uniform workloads:
// under a skewed (zipfian) key popularity the hot keys concentrate on a few
// buckets, which stresses the stripe locks of cuckoo+ and the bucket locks
// of the chained table differently. The paper's uniform methodology hides
// this; real caches are zipfian, so the harness measures it.
func Zipf(sc Scale) *Report {
	threads := sc.Threads[len(sc.Threads)-1]
	r := &Report{
		ID:      "zipf",
		Title:   fmt.Sprintf("Zipf(0.99) upsert+lookup, %d threads", threads),
		Unit:    "Mops/s",
		Columns: []string{"uniform", "zipf-0.99"},
	}
	universe := sc.Slots / 2

	for _, s := range []Scheme{CuckooPlusFG(), TBB()} {
		row := Row{Name: s.Name}
		for _, skewed := range []bool{false, true} {
			tab := s.New(sc.Slots, 1, threads, sc.Seed)
			ops := metrics.NewShardedCounter(threads)
			var wg sync.WaitGroup
			start := time.Now()
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					var gen workload.KeyGen
					if skewed {
						gen = workload.NewZipfKeys(sc.Seed+uint64(th), universe, 0.99)
					} else {
						gen = uniformUniverse{rnd: workload.NewRand(sc.Seed + uint64(th)), n: universe}
					}
					rnd := workload.NewRand(uint64(th) + 11)
					var my uint64
					perThread := sc.LookupOps
					for i := uint64(0); i < perThread; i++ {
						k := gen.ExistingKey()
						if rnd.Intn(2) == 0 {
							// Upsert so repeated hot keys are overwrites,
							// not ErrExists churn.
							if err := upsert(tab, k, i); err != nil {
								return
							}
						} else {
							tab.Lookup(k)
						}
						my++
						if my >= 256 {
							ops.Add(uint64(th), int64(my))
							my = 0
						}
					}
					ops.Add(uint64(th), int64(my))
				}(th)
			}
			wg.Wait()
			row.Values = append(row.Values, metrics.Throughput(uint64(ops.Total()), time.Since(start)))
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("extension (not in the paper): skew concentrates writers onto few stripes/buckets")
	return r
}

// upsert adapts schemes without a dedicated upsert to overwrite semantics.
func upsert(tab KV, k, v uint64) error {
	err := tab.Insert(k, v)
	if err == errStop {
		return err
	}
	return nil // ErrExists means the key is hot: treated as an overwrite hit
}

// uniformUniverse draws uniformly over the same key universe the zipf
// generator uses, so the comparison differs only in skew.
type uniformUniverse struct {
	rnd *workload.Rand
	n   uint64
}

func (u uniformUniverse) NextKey() uint64     { return u.ExistingKey() }
func (u uniformUniverse) ExistingKey() uint64 { return hashfn.SplitMix64(u.rnd.Intn(u.n)) }
