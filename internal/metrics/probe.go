package metrics

import "sync/atomic"

// ShardedCounter is a write-mostly signed counter spread over 64 padded
// cache lines so that concurrent writers on different buckets never
// contend (principle P1). Every table in the module keeps its size in one
// (it is on every insert; Probe's slow-path event counts use the narrower
// slowCounter). Callers pick the shard from a value already in hand — a
// bucket index or a hash.
type ShardedCounter struct {
	shards [64]paddedInt64
}

type paddedInt64 struct {
	v atomic.Int64
	_ [2*cacheLine - 8]byte
}

// Add adds delta to the shard selected by the low bits of shard.
func (c *ShardedCounter) Add(shard uint64, delta int64) {
	c.shards[shard&63].v.Add(delta)
}

// Total sums the shards: exact when no writer is active, a momentary view
// otherwise.
func (c *ShardedCounter) Total() int64 { return totalOf(c.shards[:]) }

// Reset zeroes every shard.
func (c *ShardedCounter) Reset() { resetAll(c.shards[:]) }

func totalOf(shards []paddedInt64) int64 {
	var t int64
	for i := range shards {
		t += shards[i].v.Load()
	}
	return t
}

func resetAll(shards []paddedInt64) {
	for i := range shards {
		shards[i].v.Store(0)
	}
}

// slowCounter is ShardedCounter sized for the insert slow path: a search, a
// displacement or a restart is bumped from inside a path search that costs
// microseconds and takes bucket locks, so eight padded shards (1 KB, as
// pathLen has) keep writers apart where sixty-four (8 KB) only cost
// memory — three of them per table, times every shard of a cache.
type slowCounter struct {
	shards [8]paddedInt64
}

func (c *slowCounter) add(shard uint64) { c.shards[shard&7].v.Add(1) }
func (c *slowCounter) total() uint64    { return uint64(totalOf(c.shards[:])) }
func (c *slowCounter) reset()           { resetAll(c.shards[:]) }

// PathLenBuckets is the width of the path-length histogram. Eq. 2 bounds
// BFS paths at ~5 displacements for the paper's B=4..16 and M=2000, so 16
// buckets cover BFS exactly; longer DFS walks clamp into the last bucket.
const PathLenBuckets = 16

// Probe holds the counters a cuckoo table's insert slow path feeds: path
// searches, displacements, restarts (Eq. 1) and the discovered path
// lengths (Eq. 2). Both engines (internal/core and generic) embed one, so
// the evaluation and the service layer read the same signals from either.
type Probe struct {
	searches      slowCounter
	displacements slowCounter
	restarts      slowCounter
	maxPathLen    atomic.Uint64
	// Path lengths are recorded once per successful search, so a modest
	// shard count suffices.
	pathLen [8]pathLenShard
}

type pathLenShard struct {
	counts [PathLenBuckets]atomic.Uint64
	_      [cacheLine]byte
}

// Searched counts one path search started from bucket.
func (p *Probe) Searched(bucket uint64) { p.searches.add(bucket) }

// Displaced counts one item moved along a cuckoo path out of bucket.
func (p *Probe) Displaced(bucket uint64) { p.displacements.add(bucket) }

// Restarted counts one insert restarted because its path went stale.
func (p *Probe) Restarted(bucket uint64) { p.restarts.add(bucket) }

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
	p.pathLen[bucket&7].counts[length].Add(1)
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
	s := ProbeStats{
		Searches:      p.searches.total(),
		Displacements: p.displacements.total(),
		PathRestarts:  p.restarts.total(),
		MaxPathLen:    p.maxPathLen.Load(),
	}
	for i := range p.pathLen {
		for b := range p.pathLen[i].counts {
			s.PathLenHist[b] += p.pathLen[i].counts[b].Load()
		}
	}
	return s
}

// Reset zeroes every counter.
func (p *Probe) Reset() {
	p.searches.reset()
	p.displacements.reset()
	p.restarts.reset()
	p.maxPathLen.Store(0)
	for i := range p.pathLen {
		for b := range p.pathLen[i].counts {
			p.pathLen[i].counts[b].Store(0)
		}
	}
}
