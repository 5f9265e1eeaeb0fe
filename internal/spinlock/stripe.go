package spinlock

import (
	"runtime"
	"sync/atomic"
)

// lockBit is the high-order bit of a stripe word. Following §4.4 of the
// paper, each stripe is a single word that serves simultaneously as the
// optimistic-read version counter (low 63 bits) and as a spinlock (the
// high-order bit).
const lockBit = uint64(1) << 63

// versionMask extracts the version counter from a stripe word.
const versionMask = lockBit - 1

// Stripe is a power-of-two-sized array of combined version/lock words used
// for lock striping over hash-table buckets. Bucket b maps to stripe
// b & (len-1); by keeping a reasonably sized table (1K–8K entries) locking
// is both fine-grained and low-overhead (§4.2).
//
// Writer protocol: Lock sets the lock bit; Unlock clears it and increments
// the version. Readers use Snapshot/Validate as an optimistic seqlock: a
// lookup reads the versions of both candidate buckets' stripes, reads the
// buckets, then validates that neither version moved (and that no writer
// held the stripe at either point).
type Stripe struct {
	words  []atomic.Uint64
	mask   uint64
	probes []lockProbe
}

// A stripe table has one contention-probe shard per stripesPerProbe
// stripes, at least one and at most maxProbeShards; stripes map onto probe
// shards by low index bits. The probes are sized by the table they sit
// beside because the table may be one of hundreds (a cache shard's 512
// stripes are 4 KB of lock words; sixteen probes beside them were 2 KB
// more): a shard per 1 KB of lock words keeps them an eighth of it, and
// writers few enough to share a small stripe table are few enough to share
// a probe, which only the spin loop touches.
const (
	stripesPerProbe = 128
	maxProbeShards  = 16
)

// lockProbe is one padded shard of the stripe table's contention counters.
// The fast path (uncontended CAS) never touches a probe: contended and
// yields are bumped only inside the spin loop, which is already paying for
// coherence misses on the lock word, so the probe's cost disappears into
// the wait it measures. Total acquisitions need no counter at all — every
// Unlock bumps the stripe's version word, so the sum of versions *is* the
// acquisition count.
type lockProbe struct {
	contended atomic.Uint64 // Lock calls whose first attempt failed
	yields    atomic.Uint64 // Gosched calls while waiting
	_         [112]byte
}

// StripeStats is a snapshot of a stripe table's lock-contention counters.
type StripeStats struct {
	// Acquisitions is the total number of completed lock acquisitions
	// (sum of stripe versions; wraps only after 2^63 per stripe).
	Acquisitions uint64
	// Contended counts Lock calls that did not acquire on their first
	// attempt — the service-layer visible form of stripe convoys.
	Contended uint64
	// Yields counts scheduler yields performed while spinning.
	Yields uint64
}

// ContentionRate returns Contended/Acquisitions, or 0 with no data.
func (s StripeStats) ContentionRate() float64 {
	if s.Acquisitions == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Acquisitions)
}

// Stats returns a snapshot of the stripe table's contention counters.
func (s *Stripe) Stats() StripeStats {
	var st StripeStats
	for i := range s.words {
		st.Acquisitions += s.words[i].Load() & versionMask
	}
	for i := range s.probes {
		st.Contended += s.probes[i].contended.Load()
		st.Yields += s.probes[i].yields.Load()
	}
	return st
}

// NewStripe creates a stripe table with n words. n must be a power of two.
func NewStripe(n int) *Stripe {
	if n <= 0 || n&(n-1) != 0 {
		panic("spinlock: stripe size must be a positive power of two")
	}
	return &Stripe{
		words:  make([]atomic.Uint64, n),
		mask:   uint64(n - 1),
		probes: make([]lockProbe, min(maxProbeShards, max(1, n/stripesPerProbe))),
	}
}

// Len returns the number of stripes.
func (s *Stripe) Len() int { return len(s.words) }

// IndexFor maps a bucket index to its stripe index.
func (s *Stripe) IndexFor(bucket uint64) uint64 { return bucket & s.mask }

// Lock acquires stripe i, spinning until the lock bit is free.
func (s *Stripe) Lock(i uint64) {
	w := &s.words[i]
	v := w.Load()
	if v&lockBit == 0 && w.CompareAndSwap(v, v|lockBit) {
		return
	}
	s.lockSlow(i, w)
}

// lockSlow is the contended path of Lock, split out so the fast path stays
// inlineable and probe-free.
func (s *Stripe) lockSlow(i uint64, w *atomic.Uint64) {
	p := &s.probes[i&uint64(len(s.probes)-1)]
	p.contended.Add(1)
	for spins := 0; ; spins++ {
		v := w.Load()
		if v&lockBit == 0 && w.CompareAndSwap(v, v|lockBit) {
			return
		}
		if spins >= spinBudget {
			p.yields.Add(1)
			runtime.Gosched()
			spins = 0
		}
	}
}

// TryLock attempts to acquire stripe i without spinning.
func (s *Stripe) TryLock(i uint64) bool {
	w := &s.words[i]
	v := w.Load()
	return v&lockBit == 0 && w.CompareAndSwap(v, v|lockBit)
}

// Unlock releases stripe i, bumping its version so that any optimistic
// reader that overlapped the critical section fails validation. It must be
// called only by the stripe's holder.
func (s *Stripe) Unlock(i uint64) {
	w := &s.words[i]
	v := w.Load()
	// Clear the lock bit and advance the version, wrapping within the
	// 63-bit version space.
	w.Store((v + 1) & versionMask)
}

// LockPair acquires stripes i and j in ascending index order, the paper's
// deadlock-avoidance rule for the per-displacement bucket pairs (§4.4).
// If both buckets share a stripe only one lock is taken.
func (s *Stripe) LockPair(i, j uint64) {
	if i == j {
		s.Lock(i)
		return
	}
	if j < i {
		i, j = j, i
	}
	s.Lock(i)
	s.Lock(j)
}

// UnlockPair releases the stripes acquired by LockPair.
func (s *Stripe) UnlockPair(i, j uint64) {
	if i == j {
		s.Unlock(i)
		return
	}
	s.Unlock(i)
	s.Unlock(j)
}

// LockOrdered acquires every stripe index in idxs following the paper's
// ascending-order deadlock-avoidance rule (§4.4), generalized from the
// two-stripe LockPair to the arbitrary stripe sets a multi-key
// transaction commit touches. idxs is sorted in place and deduplicated;
// the returned slice (a prefix of idxs) holds the distinct indexes that
// were locked and must be handed back to UnlockOrdered unchanged. waited
// reports that some stripe was held by another when it was asked for:
// the contention a caller can act on, told apart from an uncontended
// acquisition as Lock's fast path tells it from lockSlow.
func (s *Stripe) LockOrdered(idxs []uint64) (held []uint64, waited bool) {
	idxs = sortDedup(idxs)
	for _, i := range idxs {
		if !s.TryLock(i) {
			s.lockSlow(i, &s.words[i])
			waited = true
		}
	}
	return idxs, waited
}

// UnlockOrdered releases the stripes acquired by LockOrdered.
func (s *Stripe) UnlockOrdered(idxs []uint64) {
	for _, i := range idxs {
		s.Unlock(i)
	}
}

// sortDedup sorts idxs ascending and removes duplicates in place. The
// sets are transaction-sized (a handful of stripes), so an insertion
// sort beats the allocation and indirection of sort.Slice.
func sortDedup(idxs []uint64) []uint64 {
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && idxs[j] < idxs[j-1]; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	out := idxs[:0]
	for i, v := range idxs {
		if i == 0 || v != idxs[i-1] {
			//lint:allow cuckoovet:allocfree in-place compaction: out aliases idxs and never outgrows it
			out = append(out, v)
		}
	}
	return out
}

// Snapshot returns the version of stripe i for an optimistic read. ok is
// false when a writer currently holds the stripe, in which case the caller
// should retry rather than read data that is being modified.
func (s *Stripe) Snapshot(i uint64) (version uint64, ok bool) {
	v := s.words[i].Load()
	return v & versionMask, v&lockBit == 0
}

// Validate reports whether stripe i is still unlocked at the version
// observed by a previous Snapshot; if not, the optimistic read raced with a
// writer and must be retried.
func (s *Stripe) Validate(i uint64, version uint64) bool {
	return s.words[i].Load() == version
}

// Locked reports whether stripe i is currently held.
func (s *Stripe) Locked(i uint64) bool {
	return s.words[i].Load()&lockBit != 0
}

// LockAll acquires every stripe in ascending order. It is the pessimistic
// full-table lock the paper mentions for writers that encounter excessive
// insert aborts, and is used by table expansion.
func (s *Stripe) LockAll() {
	for i := range s.words {
		s.Lock(uint64(i))
	}
}

// UnlockAll releases every stripe.
func (s *Stripe) UnlockAll() {
	for i := range s.words {
		s.Unlock(uint64(i))
	}
}
