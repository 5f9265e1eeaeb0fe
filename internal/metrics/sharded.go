package metrics

import (
	"math/bits"
	"sync/atomic"
)

// ShardedHistogram is the concurrent counterpart of Histogram: the same
// power-of-two nanosecond buckets, but sharded across padded cache-line
// groups so that concurrent recorders on different shards never contend
// (principle P1). It replaces the "one histogram + one mutex" pattern,
// whose lock serialized every sampled request across all connections.
//
// Each recorder (e.g. one server connection) is assigned a shard; Record on
// distinct shards touches distinct cache lines, and Snapshot merges lazily
// at read time. Record on the *same* shard from several goroutines is safe
// too — it degrades to shared atomic adds, never to a lock. A shard is
// allocated by its first Record, so a histogram costs the shards its
// recorders use, not the shard count.
type ShardedHistogram struct {
	shards []atomic.Pointer[histShard] // nil until the shard's first Record
	mask   uint64
}

// histShard is one padded group of atomic buckets. The trailing pad keeps
// the next object's first bytes off this shard's last cache line (and off
// the adjacent prefetched line).
type histShard struct {
	buckets [64]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	_       [2*cacheLine - 16]byte
}

// NewShardedHistogram creates a histogram with n shards, rounded up to a
// power of two (min 1).
func NewShardedHistogram(n int) *ShardedHistogram {
	size := shardCount(n)
	return &ShardedHistogram{
		shards: make([]atomic.Pointer[histShard], size),
		mask:   uint64(size - 1),
	}
}

// Shards returns the shard count.
func (h *ShardedHistogram) Shards() int { return len(h.shards) }

// Record adds one sample (in nanoseconds) to the given shard. shard may be
// any value; it is reduced modulo the shard count.
func (h *ShardedHistogram) Record(shard uint64, ns uint64) {
	cell := &h.shards[shard&h.mask]
	s := cell.Load()
	if s == nil {
		s = newShard(cell)
	}
	b := min(bits.Len64(ns), 63)
	s.buckets[b].Add(1)
	s.count.Add(1)
	s.sum.Add(ns)
}

// newShard publishes cell's shard, or returns the one a concurrent Record
// published first.
//
//cuckoo:coldpath runs once per shard a histogram ever records into, at most Shards() times
func newShard(cell *atomic.Pointer[histShard]) *histShard {
	s := new(histShard)
	if cell.CompareAndSwap(nil, s) {
		return s
	}
	return cell.Load()
}

// Snapshot merges every shard into a plain value Histogram, which carries
// the quantile and mean helpers. The merge is lock-free and wait-free; a
// snapshot taken during concurrent recording is a momentary view, not an
// atomic cut, which is fine for statistics.
func (h *ShardedHistogram) Snapshot() Histogram {
	var out Histogram
	for i := range h.shards {
		s := h.shards[i].Load()
		if s == nil {
			continue
		}
		for b := range s.buckets {
			out.buckets[b] += s.buckets[b].Load()
		}
		out.count += s.count.Load()
		out.sum += s.sum.Load()
	}
	return out
}

// Buckets exposes a merged copy of the raw power-of-two bucket counts
// (bucket i counts samples in (2^(i-1), 2^i] ns; bucket 0 counts zeros),
// for exporters that render cumulative histograms.
func (h *Histogram) Buckets() [64]uint64 { return h.buckets }

// Sum returns the sum of all recorded samples in nanoseconds.
func (h *Histogram) Sum() uint64 { return h.sum }
