package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestHistogramQuantileEdges pins the quantile behavior at distribution
// edges: empty histograms, zero-valued samples, a single occupied bucket,
// and saturation at the last bucket for values near MaxUint64.
func TestHistogramQuantileEdges(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		for _, q := range []float64{0.001, 0.5, 0.99, 1.0} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
			}
		}
	})

	t.Run("all-zero samples", func(t *testing.T) {
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Record(0)
		}
		if got := h.Quantile(1.0); got != 0 {
			t.Errorf("Quantile(1.0) of zeros = %d, want 0", got)
		}
		if got := h.Mean(); got != 0 {
			t.Errorf("Mean of zeros = %v, want 0", got)
		}
	})

	t.Run("single bucket", func(t *testing.T) {
		// Every sample in bucket for [512, 1024): all quantiles must
		// return the same upper bound, 1024.
		var h Histogram
		for i := 0; i < 1000; i++ {
			h.Record(700)
		}
		for _, q := range []float64{0.001, 0.25, 0.5, 0.999, 1.0} {
			if got := h.Quantile(q); got != 1024 {
				t.Errorf("single-bucket Quantile(%v) = %d, want 1024", q, got)
			}
		}
	})

	t.Run("single sample", func(t *testing.T) {
		var h Histogram
		h.Record(3) // bucket (2,4]
		// Even a tiny q must target at least the first sample.
		if got := h.Quantile(0.0001); got != 4 {
			t.Errorf("Quantile(0.0001) = %d, want 4", got)
		}
	})

	t.Run("max-value saturation", func(t *testing.T) {
		var h Histogram
		h.Record(math.MaxUint64)
		h.Record(math.MaxUint64 - 1)
		h.Record(1 << 63)
		// All land in the final bucket; the reported bound is that
		// bucket's lower-bound power of two, not an overflowed zero.
		if got, want := h.Quantile(1.0), uint64(1)<<63; got != want {
			t.Errorf("saturated Quantile(1.0) = %d, want %d", got, want)
		}
		if got := h.Quantile(0.5); got != 1<<63 {
			t.Errorf("saturated Quantile(0.5) = %d, want %d", got, uint64(1)<<63)
		}
		if h.Count() != 3 {
			t.Errorf("Count = %d, want 3", h.Count())
		}
	})

	t.Run("path-length clamp", func(t *testing.T) {
		// The probe's path-length histogram has PathLenBuckets exact
		// buckets; anything longer (a DFS walk) lands in the last one,
		// while MaxPathLen keeps the unclamped length.
		p := NewProbe(8)
		for _, l := range []uint64{0, 1, 1, PathLenBuckets - 1, PathLenBuckets, 250, math.MaxUint64} {
			p.ObservePath(l, l) // the bucket argument only picks a shard
		}
		s := p.Snapshot()
		want := [PathLenBuckets]uint64{0: 1, 1: 2, PathLenBuckets - 1: 4}
		if s.PathLenHist != want {
			t.Errorf("PathLenHist = %v, want %v", s.PathLenHist, want)
		}
		if s.MaxPathLen != math.MaxUint64 {
			t.Errorf("MaxPathLen = %d, want the unclamped maximum", s.MaxPathLen)
		}
		p.Reset()
		if p.Snapshot() != (ProbeStats{}) {
			t.Errorf("Snapshot after Reset = %+v, want zero", p.Snapshot())
		}
	})

	t.Run("quantile ordering", func(t *testing.T) {
		var h Histogram
		for v := uint64(1); v < 1<<20; v = v*3 + 1 {
			h.Record(v)
		}
		last := uint64(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0} {
			cur := h.Quantile(q)
			if cur < last {
				t.Fatalf("Quantile(%v) = %d < previous %d: not monotone", q, cur, last)
			}
			last = cur
		}
	})
}

// TestOpCounterConcurrentTotal reads Total while writers are still
// adding (run under -race): every intermediate Total must be a value the
// true count passed through — between 0 and the final sum — and
// monotonically non-decreasing, since each padded slot only grows. Both
// ways the module counts operations in a ShardedCounter are held to it: a
// shard per writer (the benchmark drivers' operation counts) and 64 shards
// picked by bucket (behind every table's size).
func TestOpCounterConcurrentTotal(t *testing.T) {
	const (
		writers = 8
		perW    = 200000
	)
	op := NewShardedCounter(writers)
	sh := NewShardedCounter(64)
	for _, c := range []struct {
		name  string
		add   func(w int)
		total func() uint64
		reset func()
	}{
		{"OpCounter", func(w int) { op.Add(uint64(w), 1) }, func() uint64 { return uint64(op.Total()) }, op.Reset},
		// Two writers to a shard (w and w+4, and 68 aliases 4): adds to
		// one shard from several goroutines must not lose counts either.
		{"ShardedCounter", func(w int) { sh.Add(uint64(w%4+w/4*64), 1) },
			func() uint64 { return uint64(sh.Total()) }, sh.Reset},
	} {
		t.Run(c.name, func(t *testing.T) {
			var wg sync.WaitGroup
			stop := make(chan struct{})

			readerDone := make(chan error, 1)
			go func() {
				var prev uint64
				for {
					select {
					case <-stop:
						readerDone <- nil
						return
					default:
					}
					cur := c.total()
					if cur < prev {
						readerDone <- errMonotone(prev, cur)
						return
					}
					if cur > writers*perW {
						readerDone <- errBound(cur)
						return
					}
					prev = cur
				}
			}()

			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						c.add(w)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			if err := <-readerDone; err != nil {
				t.Fatal(err)
			}
			if got := c.total(); got != writers*perW {
				t.Fatalf("final Total = %d, want %d", got, writers*perW)
			}
			c.reset()
			if got := c.total(); got != 0 {
				t.Fatalf("Total after Reset = %d, want 0", got)
			}
		})
	}
}

type countErr struct{ msg string }

func (e countErr) Error() string { return e.msg }

func errMonotone(prev, cur uint64) error {
	return countErr{msg: "Total went backwards: " + itoa(prev) + " -> " + itoa(cur)}
}

func errBound(cur uint64) error {
	return countErr{msg: "Total overshot the writers' sum: " + itoa(cur)}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for v > 0 {
		p--
		b[p] = byte('0' + v%10)
		v /= 10
	}
	return string(b[p:])
}
