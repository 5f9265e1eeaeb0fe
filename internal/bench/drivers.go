package bench

import (
	"math"
	"sync"
	"time"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/workload"
)

// RunResult is the outcome of one workload run against one table.
type RunResult struct {
	// Overall is the whole-run throughput in million requests/second.
	Overall float64
	// Windows maps "lo-hi" load-factor windows (e.g. "0.90-0.95") to the
	// throughput within them; empty unless the run requested windows.
	Windows map[string]float64
	// Ops is the total operation count.
	Ops uint64
	// Duration is the wall time of the measured phase.
	Duration time.Duration
	// Tx carries the emulated-HTM counters when the table runs under
	// elision, else nil.
	Tx *htm.Stats
}

// FillSpec describes a fill-with-mixed-operations run: threads generate a
// random mix of inserts and lookups (the paper's methodology, §6: "fills it
// to 95% capacity, with random mixed concurrent reads and writes as per the
// specified insert/lookup ratio"). Fresh inserted keys are unique and
// partitioned per thread; lookups target previously inserted keys.
type FillSpec struct {
	Threads int
	Mix     workload.Mix
	// TargetLoad stops the run when the table holds TargetLoad*Slots keys.
	TargetLoad float64
	// Slots is the slot count the load factor is measured against.
	Slots uint64
	// Seed makes the run deterministic.
	Seed uint64
	// WindowBounds requests throughput windows between consecutive load
	// factors (ascending). Example: [0, 0.75, 0.9, 0.95] yields windows
	// 0-0.75, 0.75-0.9, 0.9-0.95 plus any combination via Window().
	WindowBounds []float64
	// PreFill inserts this fraction of Slots single-threaded before the
	// measured phase (used to measure steady-state at high occupancy).
	PreFill float64
}

// Fill runs the spec against tab and reports throughput. The measured phase
// counts every operation (inserts and lookups).
func Fill(tab KV, spec FillSpec) RunResult {
	if spec.Threads <= 0 {
		spec.Threads = 1
	}
	if spec.TargetLoad <= 0 {
		spec.TargetLoad = 0.95
	}

	prefilled := uint64(0)
	if spec.PreFill > 0 {
		gen := workload.NewUniformKeys(spec.Seed^0xFEED, 1<<20) // reserved thread slice
		target := uint64(spec.PreFill * float64(spec.Slots))
		for prefilled < target {
			if err := tab.Insert(gen.NextKey(), prefilled); err != nil {
				break
			}
			prefilled++
		}
	}

	// Round up so the last load-factor threshold is actually crossed.
	targetKeys := uint64(math.Ceil(spec.TargetLoad * float64(spec.Slots)))
	if targetKeys <= prefilled {
		targetKeys = prefilled + 1
	}
	quota := (targetKeys - prefilled + uint64(spec.Threads) - 1) / uint64(spec.Threads)

	ops := metrics.NewShardedCounter(spec.Threads)

	var rec *metrics.IntervalRecorder
	if len(spec.WindowBounds) > 1 {
		rec = metrics.NewIntervalRecorder(spec.WindowBounds[1:])
	}

	start := time.Now()
	if rec != nil {
		rec.Start()
	}

	// Load-factor thresholds are detected deterministically by worker 0
	// from its own insert count: inserts are partitioned evenly, so after
	// worker 0's k-th insert the table holds ≈ prefilled + k*threads keys.
	// Wall-clock sampling cannot keep up with fast fills, and a shared
	// exact counter on the hot path would violate P1; the estimate's error
	// is bounded by inter-thread skew plus the 64-op flush granularity.
	var workers sync.WaitGroup
	for th := 0; th < spec.Threads; th++ {
		workers.Add(1)
		go func(th int) {
			defer workers.Done()
			keys := workload.NewUniformKeys(spec.Seed, th)
			opGen := workload.NewOpGen(spec.Mix, spec.Seed^uint64(th)<<17|1)
			var myOps uint64
			flush := func() {
				ops.Add(uint64(th), int64(myOps))
				myOps = 0
			}
			defer flush()
			for done := uint64(0); done < quota; {
				var isInsert bool
				if spec.Mix.InsertFrac >= 1 {
					isInsert = true
				} else {
					isInsert = opGen.Next() == workload.OpInsert
				}
				if isInsert {
					if err := tab.Insert(keys.NextKey(), done); err != nil {
						if err == errStop {
							return
						}
						// ErrExists etc. — count it and move on.
					}
					done++
					if th == 0 && rec != nil {
						lf := float64(prefilled+done*uint64(spec.Threads)) / float64(spec.Slots)
						if rec.Due(lf) {
							flush()
							rec.Observe(lf, uint64(ops.Total()))
						}
					}
				} else {
					tab.Lookup(keys.ExistingKey())
				}
				myOps++
				if myOps >= 64 {
					flush()
				}
			}
		}(th)
	}
	workers.Wait()
	elapsed := time.Since(start)

	res := RunResult{
		Overall:  metrics.Throughput(uint64(ops.Total()), elapsed),
		Ops:      uint64(ops.Total()),
		Duration: elapsed,
	}
	if rec != nil {
		res.Windows = map[string]float64{}
		for i := 0; i < len(spec.WindowBounds); i++ {
			for j := i + 1; j < len(spec.WindowBounds); j++ {
				lo, hi := spec.WindowBounds[i], spec.WindowBounds[j]
				if v, err := rec.Window(lo, hi); err == nil {
					res.Windows[windowKey(lo, hi)] = v
				}
			}
		}
	}
	if ts, ok := tab.(TxStatser); ok {
		s := ts.TxStats()
		res.Tx = &s
	}
	return res
}

func windowKey(lo, hi float64) string {
	return trimFloat(lo) + "-" + trimFloat(hi)
}

func trimFloat(f float64) string {
	s := make([]byte, 0, 6)
	s = append(s, '0'+byte(int(f)))
	frac := int(f*100+0.5) % 100
	s = append(s, '.', '0'+byte(frac/10), '0'+byte(frac%10))
	return string(s)
}

// LookupSpec describes a lookup-only run against a prefilled table.
type LookupSpec struct {
	Threads int
	// OpsPerThread lookups are issued per thread over the inserted keys.
	OpsPerThread uint64
	Seed         uint64
	// PreFillThread tells workers which key-generator slices were used to
	// fill, so lookups hit present keys.
	FillThreads int
}

// PreFill loads tab to targetLoad*slots using FillThreads generator slices
// and returns the per-slice insert counts (needed to generate hits).
func PreFill(tab KV, slots uint64, targetLoad float64, fillThreads int, seed uint64) []uint64 {
	counts := make([]uint64, fillThreads)
	target := uint64(targetLoad * float64(slots))
	gens := make([]*workload.UniformKeys, fillThreads)
	for i := range gens {
		gens[i] = workload.NewUniformKeys(seed, i)
	}
	var total uint64
	for total < target {
		i := int(total % uint64(fillThreads))
		if err := tab.Insert(gens[i].NextKey(), total); err != nil {
			break
		}
		counts[i]++
		total++
	}
	return counts
}

// Lookups runs a 100%-lookup workload over keys known to be present.
func Lookups(tab KV, spec LookupSpec, fillCounts []uint64) RunResult {
	if spec.Threads <= 0 {
		spec.Threads = 1
	}
	ops := metrics.NewShardedCounter(spec.Threads)
	start := time.Now()
	var wg sync.WaitGroup
	for th := 0; th < spec.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rnd := workload.NewRand(spec.Seed ^ uint64(th)*977)
			// Each lookup thread draws from a random fill slice.
			gens := make([]*workload.UniformKeys, len(fillCounts))
			for i := range gens {
				g := workload.NewUniformKeys(spec.Seed, i)
				// Fast-forward so ExistingKey covers the filled range.
				gens[i] = g
				for j := uint64(0); j < fillCounts[i]; j++ {
					g.NextKey()
				}
			}
			var my uint64
			for i := uint64(0); i < spec.OpsPerThread; i++ {
				slice := int(rnd.Intn(uint64(len(gens))))
				tab.Lookup(gens[slice].ExistingKey())
				my++
				if my >= 1024 {
					ops.Add(uint64(th), int64(my))
					my = 0
				}
			}
			ops.Add(uint64(th), int64(my))
		}(th)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := RunResult{
		Overall:  metrics.Throughput(uint64(ops.Total()), elapsed),
		Ops:      uint64(ops.Total()),
		Duration: elapsed,
	}
	if ts, ok := tab.(TxStatser); ok {
		s := ts.TxStats()
		res.Tx = &s
	}
	return res
}
