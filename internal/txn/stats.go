package txn

import "sync/atomic"

// storeStats are the subsystem's internal counters. Everything is a
// plain atomic bumped off the fast path (commit points, aborts,
// reconciles) — never per split op: splitOps is credited in bulk at
// fold time from the drained slots' op counts.
type storeStats struct {
	commits      atomic.Uint64
	aborts       atomic.Uint64
	epochAborts  atomic.Uint64
	fallbacks    atomic.Uint64
	casConflicts atomic.Uint64
	splitOps     atomic.Uint64
	reconciles   atomic.Uint64
	promotions   atomic.Uint64
	demotions    atomic.Uint64

	// retryHist[i] counts transactions that committed after exactly i
	// OCC retries; the last bucket is the pessimistic fallback.
	retryHist []atomic.Uint64
}

func (st *storeStats) init(maxRetries int) {
	st.retryHist = make([]atomic.Uint64, maxRetries+2)
}

func (st *storeStats) recordRetries(n int) {
	if n >= len(st.retryHist) {
		n = len(st.retryHist) - 1
	}
	st.retryHist[n].Add(1)
}

// Stats is a point-in-time snapshot of the subsystem's counters.
type Stats struct {
	// Commits counts transactions that reached their commit point,
	// optimistically or via the pessimistic fallback.
	Commits uint64
	// Aborts counts OCC validation failures (each one is retried).
	Aborts uint64
	// EpochAborts is the subset of Aborts caused by a shard migration
	// epoch moving under a read-set entry (incremental resize in flight).
	EpochAborts uint64
	// Fallbacks counts transactions that exhausted the retry budget and
	// committed under stripe-ordered pessimistic locks.
	Fallbacks uint64
	// CASConflicts counts single-key CAS operations that found a
	// different value.
	CASConflicts uint64
	// SplitOps counts commutative updates absorbed by per-shard split
	// state instead of the key's stripe.
	SplitOps uint64
	// Reconciles counts split-delta folds into canonical values.
	Reconciles uint64
	// Promotions and Demotions count hot-set membership changes.
	Promotions uint64
	Demotions  uint64
	// RetryHist[i] is the number of transactions that committed after
	// exactly i OCC retries; the final bucket is the pessimistic
	// fallback. Bounded length: MaxRetries + 2.
	RetryHist []uint64
	// HotKeys is the current number of split (promoted) keys.
	HotKeys int64
}

// StatsSnapshot returns the current counters.
func (s *Store) StatsSnapshot() Stats {
	st := Stats{
		Commits:      s.stats.commits.Load(),
		Aborts:       s.stats.aborts.Load(),
		EpochAborts:  s.stats.epochAborts.Load(),
		Fallbacks:    s.stats.fallbacks.Load(),
		CASConflicts: s.stats.casConflicts.Load(),
		SplitOps:     s.stats.splitOps.Load(),
		Reconciles:   s.stats.reconciles.Load(),
		Promotions:   s.stats.promotions.Load(),
		Demotions:    s.stats.demotions.Load(),
		HotKeys:      s.split.hotCount.Load(),
	}
	st.RetryHist = make([]uint64, len(s.stats.retryHist))
	for i := range s.stats.retryHist {
		st.RetryHist[i] = s.stats.retryHist[i].Load()
	}
	return st
}
