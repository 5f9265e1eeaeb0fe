// Interprocedural fixtures: a helper's lock behavior is summarized as a
// LockFact (RawLock: it takes a raw stripe lock somewhere inside;
// NetHeld: it returns holding one) and enforced at every call site.
package lockordertest

// rawHelper takes and releases a raw stripe lock on its own.
func rawHelper(t *table, i uint64) {
	t.locks.Lock(i)
	t.locks.Unlock(i)
}

func badHelperWhileHeld(t *table, a, b uint64) {
	t.locks.Lock(a)
	rawHelper(t, b) // want `call to lockordertest\.rawHelper, which takes a raw stripe lock, while stripe lock t\.locks is held`
	t.locks.Unlock(a)
}

// acquireStripe returns with the stripe still held.
func acquireStripe(t *table, i uint64) {
	t.locks.Lock(i)
}

func releaseStripe(t *table, i uint64) {
	t.locks.Unlock(i)
}

func badLockAfterNetAcquire(t *table, a, b uint64) {
	acquireStripe(t, a)
	t.locks.Lock(b) // want `Stripe\.Lock on t\.locks while stripe lock locks held by acquireStripe\(\) is held`
	t.locks.Unlock(b)
	releaseStripe(t, a)
}

// nestedAcquire's summary inherits NetHeld through acquireStripe.
func nestedAcquire(t *table, i uint64) {
	acquireStripe(t, i)
}

func badPairAfterNestedAcquire(t *table, a, b uint64) {
	nestedAcquire(t, a)
	l1, l2 := t.locks.LockPair(a, b) // want `LockPair on t\.locks while stripe lock locks held by nestedAcquire\(\) is held`
	t.locks.UnlockPair(l1, l2)
	t.locks.Unlock(a)
}

func goodHelperAcquireCallerRelease(t *table, a uint64) {
	acquireStripe(t, a)
	t.locks.Unlock(a) // a bare Unlock releases the helper's sentinel
}

func goodBalancedHelperSequence(t *table, a, b uint64) {
	rawHelper(t, a)
	t.locks.Lock(b)
	t.locks.Unlock(b)
}

// selfRecursive exercises the cycle guard in summary computation: the
// recursion resolves to the empty fact and the direct pair balances.
func selfRecursive(t *table, i uint64, depth int) {
	if depth == 0 {
		return
	}
	t.locks.Lock(i)
	t.locks.Unlock(i)
	selfRecursive(t, i, depth-1)
}

func goodRecursiveHelper(t *table, i uint64) {
	selfRecursive(t, i, 2)
	t.locks.Lock(i)
	t.locks.Unlock(i)
}

// goodGoRunsElsewhere launches a raw-locking helper under a stripe: it
// runs on another goroutine, not in this hold.
func goodGoRunsElsewhere(t *table, a, b uint64) {
	t.locks.Lock(a)
	go rawHelper(t, b)
	t.locks.Unlock(a)
}

// goodGoHelperHoldsElsewhere: what a launched helper returns holding is
// held by its goroutine, not by the launcher.
func goodGoHelperHoldsElsewhere(t *table, a, b uint64) {
	go acquireStripe(t, a)
	t.locks.Lock(b)
	t.locks.Unlock(b)
}
