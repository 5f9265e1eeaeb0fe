package txn

import "sync/atomic"

// storeStats are the subsystem's internal counters. Everything is a
// plain atomic bumped off the fast path (commits, CAS conflicts,
// reconciles) — never per split op: splitOps is credited in bulk at
// fold time from the drained slots' op counts.
type storeStats struct {
	commits      atomic.Uint64
	casConflicts atomic.Uint64
	splitOps     atomic.Uint64
	reconciles   atomic.Uint64
	promotions   atomic.Uint64
	demotions    atomic.Uint64
}

// Stats is a point-in-time snapshot of the subsystem's counters.
type Stats struct {
	// Commits counts committed transactions (every Exec of at least one op).
	Commits uint64
	// CASConflicts counts single-key CAS operations that found a
	// different value.
	CASConflicts uint64
	// SplitOps counts commutative updates absorbed by per-shard split
	// state instead of the key's pin.
	SplitOps uint64
	// Reconciles counts split-delta folds into canonical values.
	Reconciles uint64
	// Promotions and Demotions count hot-set membership changes.
	Promotions uint64
	Demotions  uint64
	// HotKeys is the current number of split (promoted) keys.
	HotKeys int64
}

// StatsSnapshot returns the current counters.
func (s *Store) StatsSnapshot() Stats {
	return Stats{
		Commits:      s.stats.commits.Load(),
		CASConflicts: s.stats.casConflicts.Load(),
		SplitOps:     s.stats.splitOps.Load(),
		Reconciles:   s.stats.reconciles.Load(),
		Promotions:   s.stats.promotions.Load(),
		Demotions:    s.stats.demotions.Load(),
		HotKeys:      s.split.hotCount.Load(),
	}
}
