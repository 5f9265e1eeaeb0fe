package main

import (
	"math"
	"slices"
	"testing"

	"cuckoohash/internal/workload"
)

// TestRecorderErrorBound pins the recorder's promise: any quantile it
// reports is within 1% of the exact quantile of the samples, from tens of
// nanoseconds to tens of seconds.
func TestRecorderErrorBound(t *testing.T) {
	rnd := workload.NewRand(42)
	for _, top := range []uint64{200, 50_000, 3_000_000, 40_000_000_000} {
		rec := newRecorder()
		samples := make([]float64, 20000)
		for i := range samples {
			v := 10 + rnd.Intn(top)
			samples[i] = float64(v)
			rec.record(int64(v))
		}
		slices.Sort(samples)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			exact := samples[int(q*float64(len(samples)))]
			got := rec.quantile(q)
			if rel := math.Abs(got-exact) / exact; rel > 0.01 {
				t.Errorf("top %d q %g: recorder %g, exact %g, error %.4f", top, q, got, exact, rel)
			}
		}
	}
}

// TestRecorderBuckets checks that buckets tile the value range: indices
// never decrease, and a value lies within 1/256 of its bucket's midpoint.
func TestRecorderBuckets(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 257, 1023, 1024, 1 << 20, 1<<20 + 12345, 1 << 40, math.MaxUint64} {
		i := recIndex(v)
		if i < prev || i >= recBuckets {
			t.Fatalf("value %d: bucket %d after %d (of %d)", v, i, prev, recBuckets)
		}
		prev = i
		if v >= recSub {
			if rel := math.Abs(recValue(i)-float64(v)) / float64(v); rel > 1.0/256+1e-12 {
				t.Errorf("value %d: bucket midpoint %g is %.5f away", v, recValue(i), rel)
			}
		} else if recValue(i) != float64(v) {
			t.Errorf("value %d: bucket midpoint %g", v, recValue(i))
		}
	}
}

func TestMergeAndMedian(t *testing.T) {
	a, b := newRecorder(), newRecorder()
	for i := range 100 {
		a.record(int64(i))
		b.record(int64(100 + i))
	}
	a.merge(b)
	if a.total() != 200 || a.quantile(0.5) != 100 {
		t.Errorf("merged n=%d median=%g", a.total(), a.quantile(0.5))
	}
	a.reset()
	if a.total() != 0 || a.quantile(0.5) != 0 {
		t.Error("reset left samples behind")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
}
