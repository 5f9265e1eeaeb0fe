package metrics

import (
	"math/bits"
	"sync/atomic"
)

// ShardedCounter is a write-mostly signed counter spread over padded cache
// lines so that concurrent writers on different buckets never contend
// (principle P1). Every table in the module keeps its size in one (it is on
// every insert), and the benchmark drivers count their operations in one, a
// shard per worker. Callers pick the shard from a value already in hand — a
// bucket index, a hash or a worker number — and the width when they build
// it: 64 lines for a table that is the whole store, fewer for one that is a
// small shard of it.
type ShardedCounter struct {
	shards []paddedInt64
}

type paddedInt64 struct {
	v atomic.Int64
	_ [2*cacheLine - 8]byte
}

// NewShardedCounter creates a counter over n shards, rounded up to a power
// of two (min 1), so that n writers numbered 0 to n-1 each get their own.
func NewShardedCounter(n int) ShardedCounter {
	return ShardedCounter{shards: make([]paddedInt64, shardCount(n))}
}

// shardCount rounds a requested shard count up to a power of two (min 1),
// so that a shard is picked by masking.
func shardCount(n int) int { return 1 << bits.Len(uint(max(n, 1)-1)) }

// Add adds delta to the shard selected by the low bits of shard.
func (c *ShardedCounter) Add(shard uint64, delta int64) {
	c.shards[shard&uint64(len(c.shards)-1)].v.Add(delta)
}

// Total sums the shards: exact when no writer is active, a momentary view
// otherwise.
func (c *ShardedCounter) Total() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Reset zeroes every shard.
func (c *ShardedCounter) Reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

// PathLenBuckets is the width of the path-length histogram. Eq. 2 bounds
// BFS paths at ~5 displacements for the paper's B=4..16 and M=2000, so 16
// buckets cover BFS exactly; longer DFS walks clamp into the last bucket.
const PathLenBuckets = 16

// Probe holds the counters a cuckoo table's insert slow path feeds: path
// searches, displacements, restarts (Eq. 1) and the discovered path
// lengths (Eq. 2). Both engines (internal/core and generic) embed one, so
// the evaluation and the service layer read the same signals from either.
type Probe struct {
	maxPathLen atomic.Uint64
	shards     []probeShard
}

// probeShard is one padded group of a Probe's counters. They share their
// lines: all of them are bumped from inside one path search, which costs
// microseconds and takes bucket locks, by the goroutine running it — a
// shard per counter kept writers no further apart and cost more than twice
// the memory, in every shard of a cache.
type probeShard struct {
	searches      atomic.Uint64
	displacements atomic.Uint64
	restarts      atomic.Uint64
	pathLen       [PathLenBuckets]atomic.Uint64
	_             [4*cacheLine - 8*(3+PathLenBuckets)]byte
}

// NewProbe creates a probe over n shards, rounded up to a power of two (min
// 1). A table that is the whole store uses eight.
func NewProbe(n int) Probe {
	return Probe{shards: make([]probeShard, shardCount(n))}
}

func (p *Probe) shard(bucket uint64) *probeShard {
	return &p.shards[bucket&uint64(len(p.shards)-1)]
}

// Searched counts one path search started from bucket.
func (p *Probe) Searched(bucket uint64) { p.shard(bucket).searches.Add(1) }

// Displaced counts one item moved along a cuckoo path out of bucket.
func (p *Probe) Displaced(bucket uint64) { p.shard(bucket).displacements.Add(1) }

// Restarted counts one insert restarted because its path went stale.
func (p *Probe) Restarted(bucket uint64) { p.shard(bucket).restarts.Add(1) }

// ObservePath records a discovered path of length displacements.
func (p *Probe) ObservePath(bucket, length uint64) {
	for {
		cur := p.maxPathLen.Load()
		if length <= cur || p.maxPathLen.CompareAndSwap(cur, length) {
			break
		}
	}
	if length >= PathLenBuckets {
		length = PathLenBuckets - 1
	}
	p.shard(bucket).pathLen[length].Add(1)
}

// ProbeStats is a snapshot of a Probe. core.Stats and generic.Stats embed
// it, so its field names are part of their API.
type ProbeStats struct {
	// Searches is the number of cuckoo-path searches performed (slow-path
	// inserts).
	Searches uint64
	// Displacements is the number of item moves executed along cuckoo
	// paths.
	Displacements uint64
	// PathRestarts counts inserts whose discovered path was invalidated by
	// a concurrent writer before execution completed; Eq. 1 predicts how
	// rare this is.
	PathRestarts uint64
	// MaxPathLen is the longest cuckoo path (in displacements) any search
	// discovered; Eq. 2 bounds it for BFS.
	MaxPathLen uint64
	// PathLenHist[i] counts successful path searches that discovered a
	// path of exactly i displacements (the last bucket also absorbs any
	// longer DFS walks). Its mass distribution is the empirical form of
	// the Eq. 2 analysis.
	PathLenHist [PathLenBuckets]uint64
}

// Snapshot aggregates the shards.
func (p *Probe) Snapshot() ProbeStats {
	s := ProbeStats{MaxPathLen: p.maxPathLen.Load()}
	for i := range p.shards {
		sh := &p.shards[i]
		s.Searches += sh.searches.Load()
		s.Displacements += sh.displacements.Load()
		s.PathRestarts += sh.restarts.Load()
		for b := range sh.pathLen {
			s.PathLenHist[b] += sh.pathLen[b].Load()
		}
	}
	return s
}

// Reset zeroes every counter.
func (p *Probe) Reset() {
	p.maxPathLen.Store(0)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.searches.Store(0)
		sh.displacements.Store(0)
		sh.restarts.Store(0)
		for b := range sh.pathLen {
			sh.pathLen[b].Store(0)
		}
	}
}
