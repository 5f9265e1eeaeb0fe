// Package metrics provides the measurement plumbing for the benchmark
// harness: per-thread padded counters (principle P1 of the paper — never
// share a statistics counter between threads), load-factor interval timers,
// and a small power-of-two latency histogram.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// cacheLine is the assumed coherence granularity. Counters are padded to
// two lines to defeat adjacent-line prefetching as well.
const cacheLine = 64

// Throughput converts an operation count and duration to millions of
// requests per second, the unit of every figure in the paper.
func Throughput(ops uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds() / 1e6
}

// IntervalRecorder captures the time and operation count at which a fill
// run crosses load-factor thresholds, so throughput can be reported for
// occupancy windows such as 0–0.95, 0.75–0.9, 0.9–0.95 (Figures 5 and 6).
type IntervalRecorder struct {
	thresholds []float64
	times      []time.Time
	ops        []uint64
	next       int
	start      time.Time
}

// NewIntervalRecorder creates a recorder for the given ascending load-factor
// thresholds. Call Start before the run and Observe as occupancy grows.
func NewIntervalRecorder(thresholds []float64) *IntervalRecorder {
	for i := 1; i < len(thresholds); i++ {
		if thresholds[i] <= thresholds[i-1] {
			panic("metrics: thresholds must be strictly ascending")
		}
	}
	r := &IntervalRecorder{
		thresholds: thresholds,
		times:      make([]time.Time, len(thresholds)),
		ops:        make([]uint64, len(thresholds)),
	}
	return r
}

// Start marks the beginning of the run (load factor 0).
func (r *IntervalRecorder) Start() {
	r.start = time.Now()
	r.next = 0
}

// Due reports whether the next unrecorded threshold has been reached, so
// callers can avoid the Observe call (and its operation-count aggregation)
// on the fast path.
func (r *IntervalRecorder) Due(loadFactor float64) bool {
	return r.next < len(r.thresholds) && loadFactor >= r.thresholds[r.next]
}

// Observe records the current load factor with the cumulative operation
// count. It is cheap when no threshold is crossed, so drivers may call it
// every few thousand operations.
func (r *IntervalRecorder) Observe(loadFactor float64, ops uint64) {
	for r.next < len(r.thresholds) && loadFactor >= r.thresholds[r.next] {
		r.times[r.next] = time.Now()
		r.ops[r.next] = ops
		r.next++
	}
}

// Window returns the throughput (Mops/s) between load factors lo and hi.
// Both must be recorded thresholds; lo == 0 means the start of the run.
func (r *IntervalRecorder) Window(lo, hi float64) (float64, error) {
	t0, ops0 := r.start, uint64(0)
	if lo != 0 {
		i := r.indexOf(lo)
		if i < 0 || i >= r.next {
			return 0, fmt.Errorf("metrics: threshold %v not recorded", lo)
		}
		t0, ops0 = r.times[i], r.ops[i]
	}
	j := r.indexOf(hi)
	if j < 0 || j >= r.next {
		return 0, fmt.Errorf("metrics: threshold %v not recorded", hi)
	}
	return Throughput(r.ops[j]-ops0, r.times[j].Sub(t0)), nil
}

func (r *IntervalRecorder) indexOf(th float64) int {
	for i, t := range r.thresholds {
		if math.Abs(t-th) < 1e-9 {
			return i
		}
	}
	return -1
}

// Histogram is a power-of-two-bucketed histogram for latency samples in
// nanoseconds. It is not safe for concurrent use; keep one per thread and
// Merge afterwards.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
}

// Record adds one sample.
func (h *Histogram) Record(ns uint64) {
	b := min(bits.Len64(ns), 63)
	h.buckets[b]++
	h.count++
	h.sum += ns
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.count += other.count
	h.sum += other.sum
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean sample value, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) based on
// bucket boundaries.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			if i == 0 {
				return 0
			}
			return 1 << uint(i)
		}
	}
	return math.MaxUint64
}
