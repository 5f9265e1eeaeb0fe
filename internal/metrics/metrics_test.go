package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestOpCounter: an operation counter is a ShardedCounter built for its
// writers, each adding into the shard its number picks. A writer count that
// is not a power of two is rounded up, so three writers get a padded shard
// each, as the probe and the histogram round theirs.
func TestOpCounter(t *testing.T) {
	const writers = 3
	c := NewShardedCounter(writers)
	if len(c.shards) != 4 || len(NewProbe(writers).shards) != 4 || NewShardedHistogram(writers).Shards() != 4 {
		t.Fatalf("%d writers: %d counter shards, want 4, and as many probe and histogram shards", writers, len(c.shards))
	}
	var wg sync.WaitGroup
	for th := 0; th < writers; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(uint64(th), 2)
			}
		}(th)
	}
	wg.Wait()
	for th := 0; th < writers; th++ {
		if got := c.shards[th].v.Load(); got != 2000 {
			t.Fatalf("writer %d's shard holds %d, want its own 2000", th, got)
		}
	}
	if got := c.Total(); got != 6000 {
		t.Fatalf("Total = %d", got)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(2_000_000, time.Second); got != 2.0 {
		t.Fatalf("Throughput = %v", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Fatalf("Throughput with zero duration = %v", got)
	}
}

func TestIntervalRecorder(t *testing.T) {
	r := NewIntervalRecorder([]float64{0.5, 0.9})
	r.Start()
	if r.Due(0.4) {
		t.Fatal("Due(0.4) before 0.5")
	}
	if !r.Due(0.5) {
		t.Fatal("not Due(0.5)")
	}
	r.Observe(0.5, 100)
	time.Sleep(2 * time.Millisecond)
	r.Observe(0.9, 300)

	v, err := r.Window(0, 0.5)
	if err != nil || v <= 0 {
		t.Fatalf("Window(0,0.5) = %v, %v", v, err)
	}
	v2, err := r.Window(0.5, 0.9)
	if err != nil || v2 <= 0 {
		t.Fatalf("Window(0.5,0.9) = %v, %v", v2, err)
	}
	if _, err := r.Window(0.5, 0.7); err == nil {
		t.Fatal("unknown threshold accepted")
	}
}

func TestIntervalRecorderSkipsInOneObserve(t *testing.T) {
	// One Observe crossing several thresholds records them all.
	r := NewIntervalRecorder([]float64{0.3, 0.6, 0.9})
	r.Start()
	r.Observe(0.95, 500)
	for _, th := range []float64{0.3, 0.6, 0.9} {
		if _, err := r.Window(0, th); err != nil {
			t.Fatalf("threshold %v not recorded: %v", th, err)
		}
	}
}

func TestIntervalRecorderBadThresholds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending thresholds accepted")
		}
	}()
	NewIntervalRecorder([]float64{0.5, 0.5})
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 4, 8, 1024, 1024, 1 << 30} {
		h.Record(v)
	}
	if h.Count() != 7 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() <= 0 {
		t.Fatal("Mean <= 0")
	}
	if q := h.Quantile(0.5); q == 0 || q > 1<<11 {
		t.Fatalf("median bound = %d", q)
	}
	if q := h.Quantile(1.0); q < 1<<30 {
		t.Fatalf("p100 bound = %d", q)
	}

	var other Histogram
	other.Record(16)
	h.Merge(&other)
	if h.Count() != 8 {
		t.Fatalf("after merge Count = %d", h.Count())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram stats nonzero")
	}
}

// TestShardedHistogramConcurrentFirstRecords: goroutines racing to make one
// fresh shard's first Records publish exactly one histShard between them,
// and the count, sum and buckets are exact — a second shard published over
// the first would drop the samples recorded into the loser.
func TestShardedHistogramConcurrentFirstRecords(t *testing.T) {
	const writers, each = 8, 64
	for round := 0; round < 100; round++ {
		h := NewShardedHistogram(4)
		var want Histogram
		for g := 0; g < writers; g++ {
			for i := 0; i < each; i++ {
				want.Record(uint64(g*each + i))
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < each; i++ {
					h.Record(1, uint64(g*each+i))
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for i := range h.shards {
			if published := h.shards[i].Load() != nil; published != (i == 1) {
				t.Fatalf("round %d: shard %d published = %v, want only shard 1", round, i, published)
			}
		}
		got := h.Snapshot()
		if got.Count() != want.Count() || got.Sum() != want.Sum() || got.Buckets() != want.Buckets() {
			t.Fatalf("round %d: count %d sum %d, want %d and %d with equal buckets: samples were lost",
				round, got.Count(), got.Sum(), want.Count(), want.Sum())
		}
	}
}
