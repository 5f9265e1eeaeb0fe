// Package lockordertest is the lockorder golden: raw two-lock sequences
// must be flagged, LockPair and sequential lock/unlock must not.
package lockordertest

import "stripelib"

type table struct {
	locks *stripelib.Stripe
}

func badDoubleLock(t *table, a, b uint64) {
	t.locks.Lock(a)
	t.locks.Lock(b) // want `Stripe\.Lock on t\.locks while stripe lock t\.locks is held`
	t.locks.Unlock(b)
	t.locks.Unlock(a)
}

// badLockInLabeledLoop: a labeled statement is walked like any other.
func badLockInLabeledLoop(t *table, a uint64, bs []uint64) {
	t.locks.Lock(a)
outer:
	for _, b := range bs {
		if b == a {
			break outer
		}
		t.locks.Lock(b) // want `Stripe\.Lock on t\.locks while stripe lock t\.locks is held`
		t.locks.Unlock(b)
	}
	t.locks.Unlock(a)
}

func badPairWhileHeld(t *table, a, b uint64) {
	t.locks.Lock(a)
	t.locks.LockPair(a, b) // want `LockPair on t\.locks while stripe lock`
	t.locks.Unlock(a)
}

func badLockSurvivesBranch(t *table, a, b uint64, cond bool) {
	if cond {
		t.locks.Lock(a)
	}
	t.locks.Lock(b) // want `while stripe lock t\.locks is held`
	t.locks.Unlock(b)
	if cond {
		t.locks.Unlock(a)
	}
}

func badDeferredUnlockDoesNotRelease(t *table, a, b uint64) {
	t.locks.Lock(a)
	defer t.locks.Unlock(a)
	t.locks.Lock(b) // want `while stripe lock t\.locks is held`
	t.locks.Unlock(b)
}

func badOrderedWhileHeld(t *table, a, b uint64) {
	t.locks.Lock(a)
	t.locks.LockOrdered([]uint64{a, b}) // want `LockOrdered on t\.locks while stripe lock`
	t.locks.Unlock(a)
}

func goodOrdered(t *table, a, b uint64) {
	held := t.locks.LockOrdered([]uint64{a, b})
	t.locks.UnlockOrdered(held)
}

func goodPair(t *table, a, b uint64) {
	l1, l2 := t.locks.LockPair(a, b)
	t.locks.UnlockPair(l1, l2)
}

func goodSequential(t *table, a, b uint64) {
	t.locks.Lock(a)
	t.locks.Unlock(a)
	t.locks.Lock(b)
	t.locks.Unlock(b)
}

func goodBranchesRelease(t *table, a, b uint64, cond bool) {
	if cond {
		t.locks.Lock(a)
		t.locks.Unlock(a)
	} else {
		t.locks.Lock(b)
		t.locks.Unlock(b)
	}
	t.locks.Lock(a)
	t.locks.Unlock(a)
}

func goodLiteralIsSeparate(t *table, a uint64) func() {
	t.locks.Lock(a)
	f := func(b uint64) {
		// A function literal runs later, outside the holder's frame.
		t.locks.Lock(b)
		t.locks.Unlock(b)
	}
	t.locks.Unlock(a)
	return func() { f(a) }
}

func badLockAfterEarlyExit(t *table, a, b uint64, bail bool) {
	t.locks.Lock(a)
	if bail {
		t.locks.Unlock(a)
		return
	}
	t.locks.Lock(b) // want `Stripe\.Lock on t\.locks while stripe lock t\.locks is held`
	t.locks.Unlock(b)
	t.locks.Unlock(a)
}

// goodBranchLocksAndReturns holds a to the end of a branch that returns:
// the hold never reaches the join, so the later Lock is alone.
func goodBranchLocksAndReturns(t *table, a, b uint64, cond bool) uint64 {
	if cond {
		t.locks.Lock(a)
		defer t.locks.Unlock(a)
		return t.locks.Snapshot(a)
	}
	t.locks.Lock(b)
	t.locks.Unlock(b)
	return 0
}

// goodSpinMutexNests: a single spin lock is no stripe, so taking one under
// a stripe (or a stripe under it) is outside the ordering rule.
func goodSpinMutexNests(t *table, mu *stripelib.Spin, a uint64) {
	t.locks.Lock(a)
	mu.Lock()
	mu.Unlock()
	t.locks.Unlock(a)
	mu.Lock()
	t.locks.Lock(a)
	t.locks.Unlock(a)
	mu.Unlock()
}
