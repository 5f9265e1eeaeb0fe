package bench

import (
	"fmt"
	"sync"
	"time"

	"cuckoohash/internal/core"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/workload"
)

// Churn measures steady-state delete+insert pairs at fixed high occupancy —
// the usage mode §6.3 singles out: "Others may issue inserts and deletes to
// a table at high occupancy, thus caring more about 90%-95% insert
// throughput". Unlike the fill experiments, occupancy here is stationary,
// so every insert pays the high-occupancy path-search price indefinitely.
func Churn(sc Scale) *Report {
	threads := sc.Threads[len(sc.Threads)-1]
	occupancies := []float64{0.50, 0.75, 0.90, 0.95}
	r := &Report{
		ID:    "churn",
		Title: fmt.Sprintf("Steady-state delete+insert churn, %d threads", threads),
		Unit:  "Mops/s",
	}
	for _, occ := range occupancies {
		r.Columns = append(r.Columns, fmt.Sprintf("@%.2f", occ))
	}

	schemes := []Scheme{
		CuckooPlusFG(),
		CuckooPlusVariant("cuckoo+ DFS", core.LockStriped, core.SearchDFS, false),
		TBB(),
	}
	for _, s := range schemes {
		row := Row{Name: s.Name}
		for _, occ := range occupancies {
			row.Values = append(row.Values, churnRun(s, sc, threads, occ))
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("each op is one delete of an owned key plus one insert of a fresh key; occupancy is stationary")
	r.AddNote("paper shape: cuckoo+ BFS degrades gently toward 0.95; DFS falls off a cliff (long random walks)")
	return r
}

// churnRun prefills to the target occupancy, then measures delete+insert
// pairs on per-thread key populations.
func churnRun(s Scheme, sc Scale, threads int, occupancy float64) float64 {
	tab := s.New(sc.Slots, 1, threads, sc.Seed)

	// Per-thread populations, filled round-robin to the target.
	target := uint64(occupancy * float64(sc.Slots))
	perThread := target / uint64(threads)
	gens := make([]*workload.UniformKeys, threads)
	live := make([][]uint64, threads)
	for th := range gens {
		gens[th] = workload.NewUniformKeys(sc.Seed, th)
		live[th] = make([]uint64, 0, perThread)
		for i := uint64(0); i < perThread; i++ {
			k := gens[th].NextKey()
			if err := tab.Insert(k, i); err != nil {
				break
			}
			live[th] = append(live[th], k)
		}
	}

	opsPerThread := sc.LookupOps / 8
	if opsPerThread == 0 {
		opsPerThread = 1
	}
	ops := metrics.NewShardedCounter(threads)
	var wg sync.WaitGroup
	start := time.Now()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rnd := workload.NewRand(sc.Seed ^ uint64(th)*131)
			mine := live[th]
			if len(mine) == 0 {
				return
			}
			var my uint64
			for i := uint64(0); i < opsPerThread; i++ {
				victim := rnd.Intn(uint64(len(mine)))
				tab.Delete(mine[victim])
				k := gens[th].NextKey()
				if err := tab.Insert(k, i); err != nil {
					// Full despite the delete (another thread's insert won
					// the slot): put the victim back next round and retry
					// with a different victim.
					continue
				}
				mine[victim] = k
				my += 2
				if my >= 64 {
					ops.Add(uint64(th), int64(my))
					my = 0
				}
			}
			ops.Add(uint64(th), int64(my))
		}(th)
	}
	wg.Wait()
	return metrics.Throughput(uint64(ops.Total()), time.Since(start))
}
