package main

import (
	"math/bits"
	"slices"
)

// recorder is a log-linear latency histogram over nanosecond samples:
// values below 128 get one bucket each, and every power-of-two range
// above is cut into 128 equal buckets. A reported quantile is the
// midpoint of its bucket, so it is within 1/256 (0.4%) of a sample in
// that bucket — under the 1% the benchmark promises, where
// internal/metrics.Histogram's power-of-two buckets can be 2x off.
//
// A recorder is owned by one goroutine while it records; merge after the
// goroutine has finished. Recording writes only the goroutine's own
// bucket array — there is no running total, whose word two recorders
// allocated side by side would share a cache line over.
type recorder struct {
	counts []uint32
}

const (
	recSubBits = 7
	recSub     = 1 << recSubBits
	// 57 octaves above the linear range cover every uint64.
	recBuckets = (64-recSubBits)*recSub + recSub
)

func newRecorder() *recorder { return &recorder{counts: make([]uint32, recBuckets)} }

func recIndex(v uint64) int {
	if v < recSub {
		return int(v)
	}
	shift := uint(bits.Len64(v)) - 1 - recSubBits
	return int(uint64(shift)*recSub + v>>shift)
}

// recValue is the midpoint of bucket i.
func recValue(i int) float64 {
	if i < 2*recSub {
		return float64(i)
	}
	shift := uint(i/recSub) - 1
	low := uint64(i-int(shift)*recSub) << shift
	return float64(low) + float64(uint64(1)<<shift)/2
}

func (r *recorder) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	r.counts[recIndex(uint64(ns))]++
}

func (r *recorder) merge(o *recorder) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
}

func (r *recorder) reset() {
	clear(r.counts)
}

// total is the number of samples recorded.
func (r *recorder) total() uint64 {
	var n uint64
	for _, c := range r.counts {
		n += uint64(c)
	}
	return n
}

// quantile returns the q-quantile in nanoseconds (0 with no samples).
func (r *recorder) quantile(q float64) float64 {
	n := r.total()
	if n == 0 {
		return 0
	}
	rank := min(uint64(q*float64(n)), n-1)
	var seen uint64
	for i, c := range r.counts {
		seen += uint64(c)
		if seen > rank {
			return recValue(i)
		}
	}
	return recValue(len(r.counts) - 1)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
