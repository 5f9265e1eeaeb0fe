// Package blockchecktest is the blockcheck golden: no blocking call may
// be transitively reachable from a spinlock critical section, a seqlock
// Snapshot/Validate read window, or an HTM transaction body — including
// regions opened by net-acquiring helpers and function values run inside
// a callee's region.
package blockchecktest

import (
	"fmt"
	"io"
	"sync"
	"time"
	"unsafe"

	"htmlib"
	"stripelib"
)

type table struct {
	locks *stripelib.Stripe
	mu    sync.Mutex
	ch    chan uint64
}

func badSleepInSpin(t *table, i uint64) {
	t.locks.Lock(i)
	time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on t\.locks: blockchecktest\.badSleepInSpin`
	t.locks.Unlock(i)
}

func badChanInSpin(t *table, i uint64) {
	t.locks.Lock(i)
	t.ch <- i // want `channel send reachable inside spinlock critical section on t\.locks`
	t.locks.Unlock(i)
}

func badSelectInSpin(t *table, i uint64) {
	t.locks.Lock(i)
	select { // want `select reachable inside spinlock critical section on t\.locks`
	case v := <-t.ch: // want `channel receive reachable inside spinlock critical section on t\.locks`
		_ = v
	default:
	}
	t.locks.Unlock(i)
}

func logHit(i uint64) {
	fmt.Println("hit", i) // want `I/O call fmt\.Println reachable inside spinlock critical section on t\.locks: blockchecktest\.badHelperBlocks -> blockchecktest\.logHit`
}

func badHelperBlocks(t *table, i uint64) {
	t.locks.Lock(i)
	logHit(i)
	t.locks.Unlock(i)
}

func logMiss(i uint64) {
	fmt.Println("miss", i) // want `I/O call fmt\.Println reachable inside spinlock critical section on t\.locks: blockchecktest\.badSameSiteThenSleep -> blockchecktest\.logMiss`
}

// badSameSiteThenSleep reaches one blocking site by eleven chains, more
// than a region's finding cap (10), then a second site: the repeats of a site
// already reported must not use up the cap and hide the second.
func badSameSiteThenSleep(t *table, i uint64) {
	t.locks.Lock(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	logMiss(i)
	time.Sleep(2) // want `blocking time call time\.Sleep reachable inside spinlock critical section on t\.locks: blockchecktest\.badSameSiteThenSleep`
	t.locks.Unlock(i)
}

func badMutexInWindow(t *table, i uint64) uint64 {
	for {
		v := t.locks.Snapshot(i)
		t.mu.Lock() // want `blocking sync call \(\*sync\.Mutex\)\.Lock reachable inside seqlock read window`
		t.mu.Unlock()
		if t.locks.Validate(i, v) {
			return v
		}
	}
}

func badIOInTxn(r *htmlib.Region) error {
	return r.Run(func(tx *htmlib.Txn) error {
		tx.Store(0, tx.Load(1))
		fmt.Println("committed") // want `I/O call fmt\.Println reachable inside HTM transaction body`
		return nil
	})
}

// acquire returns with the stripe held: callers inherit an open region.
func acquire(t *table, i uint64) {
	t.locks.Lock(i)
}

func badAfterHelperHolds(t *table, i uint64) {
	acquire(t, i)
	time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on locks held by acquire`
	t.locks.Unlock(i)
}

// withStripe runs fn while holding stripe i: every argument is a region.
func withStripe(t *table, i uint64, fn func()) {
	t.locks.Lock(i)
	fn()
	t.locks.Unlock(i)
}

func badArgBlocks(t *table, i uint64) {
	withStripe(t, i, func() {
		t.mu.Lock() // want `blocking sync call \(\*sync\.Mutex\)\.Lock reachable inside spinlock critical section on t\.locks \(argument run by blockchecktest\.withStripe\): blockchecktest\.badArgBlocks -> func literal`
	})
}

func napOnce() {
	time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on t\.locks \(argument run by blockchecktest\.withStripe\): blockchecktest\.badNamedArgBlocks -> blockchecktest\.napOnce`
}

// badNamedArgBlocks hands withStripe a declared function, not a literal.
func badNamedArgBlocks(t *table, i uint64) {
	withStripe(t, i, napOnce)
}

func goodArgSpins(t *table, i uint64) {
	withStripe(t, i, func() {
		t.locks.Snapshot(i)
	})
}

func goodSpinIsShort(t *table, i uint64) uint64 {
	t.locks.Lock(i)
	v := t.locks.Snapshot(i)
	t.locks.Unlock(i)
	return v
}

// recordBytes reads a length-prefixed record through its pointer.
func recordBytes(p *byte) string { return unsafe.String(p, int(*p)+1) }

// Package unsafe's functions are built-ins, not calls: nothing to resolve,
// nothing that can park.
func goodUnsafeInSpin(t *table, i uint64, p *byte) int {
	t.locks.Lock(i)
	n := len(recordBytes(p)) + int(unsafe.Sizeof(i))
	t.locks.Unlock(i)
	return n
}

func badSleepBesideUnsafe(t *table, i uint64, p *byte) int {
	t.locks.Lock(i)
	n := len(recordBytes(p))
	time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on t\.locks`
	t.locks.Unlock(i)
	return n
}

func goodBlockAfterRelease(t *table, i uint64) {
	t.locks.Lock(i)
	t.locks.Unlock(i)
	t.ch <- i
}

func goodWindowIsLoads(t *table, i uint64) uint64 {
	for {
		v := t.locks.Snapshot(i)
		x := t.locks.Snapshot(i + 1)
		if t.locks.Validate(i, v) {
			return x
		}
	}
}

func goodTxnIsPure(r *htmlib.Region) error {
	return r.Run(func(tx *htmlib.Txn) error {
		tx.Store(0, tx.Load(1)+1)
		return nil
	})
}

// badSleepAfterEarlyExit releases on an early exit; the fall-through
// path still holds the stripe over the sleep.
func badSleepAfterEarlyExit(t *table, i uint64, bail bool) {
	t.locks.Lock(i)
	if bail {
		t.locks.Unlock(i)
		return
	}
	time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on t\.locks: blockchecktest\.badSleepAfterEarlyExit`
	t.locks.Unlock(i)
}

func flushUnder(t *table) {
	t.mu.Lock() // want `blocking sync call \(\*sync\.Mutex\)\.Lock reachable inside spinlock critical section on t\.locks: blockchecktest\.badFlushAfterOrderedExit -> blockchecktest\.flushUnder`
	t.mu.Unlock()
}

// badFlushAfterOrderedExit is a commit: lock every stripe in order,
// re-validate with an early-exit release per stale read, then flush
// under the stripes.
func badFlushAfterOrderedExit(t *table, idxs, vers []uint64) bool {
	held := t.locks.LockOrdered(idxs)
	for k, i := range held {
		if t.locks.Snapshot(i) != vers[k] {
			t.locks.UnlockOrdered(held)
			return false
		}
	}
	flushUnder(t)
	t.locks.UnlockOrdered(held)
	return true
}

// goodBlockAfterLoopOfHolds takes and releases one stripe per iteration;
// the mutex after the loop is outside every hold.
func goodBlockAfterLoopOfHolds(t *table, keys []uint64) (sum uint64) {
	for _, k := range keys {
		t.locks.Lock(k)
		sum += t.locks.Snapshot(k)
		t.locks.Unlock(k)
	}
	t.mu.Lock()
	t.mu.Unlock()
	return sum
}

func badSleepInSpinMutex(mu *stripelib.Spin) {
	mu.Lock()
	time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on mu: blockchecktest\.badSleepInSpinMutex`
	mu.Unlock()
}

func badWriterInSpin(t *table, w io.Writer, i uint64) {
	t.locks.Lock(i)
	w.Write(nil) // want `I/O interface call \(io\.Writer\)\.Write reachable inside spinlock critical section on t\.locks`
	t.locks.Unlock(i)
}

// goodFormatInSpin: fmt's formatting functions do no I/O.
func goodFormatInSpin(t *table, i uint64) string {
	t.locks.Lock(i)
	s := fmt.Sprint(i)
	t.locks.Unlock(i)
	return s
}

// pairThenRelease is core.Table.Delete's shape: it takes its own pair and
// releases it on an early exit as well as at the end, so it releases
// nothing its caller holds.
func pairThenRelease(t *table, i, j uint64, bail bool) {
	l1, l2 := t.locks.LockPair(i, j)
	if bail {
		t.locks.UnlockPair(l1, l2)
		return
	}
	t.locks.UnlockPair(l1, l2)
}

func badSleepAfterBalancedHelper(t *table, i, j uint64, bail bool) {
	acquire(t, i)
	pairThenRelease(t, j, j+1, bail)
	time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on locks held by acquire\(\): blockchecktest\.badSleepAfterBalancedHelper`
	t.locks.Unlock(i)
}

func slowIndex(i uint64) uint64 {
	time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on t\.locks: blockchecktest\.badSleepInUnlockArg -> blockchecktest\.slowIndex`
	return i
}

// badSleepInUnlockArg: a release's arguments are evaluated while the lock
// is still held.
func badSleepInUnlockArg(t *table, i uint64) {
	t.locks.Lock(i)
	t.locks.Unlock(slowIndex(i))
}

// withStripeIf hands withStripe a literal that calls keep, a parameter of
// withStripeIf itself: every argument its callers pass for keep is a
// region (the server's removeIf shape).
func withStripeIf(t *table, i uint64, keep func(uint64) bool) (kept bool) {
	withStripe(t, i, func() {
		kept = keep(i)
	})
	return kept
}

func badCapturedParamBlocks(t *table, i uint64) bool {
	return withStripeIf(t, i, func(uint64) bool {
		t.mu.Lock() // want `blocking sync call \(\*sync\.Mutex\)\.Lock reachable inside spinlock critical section on t\.locks \(argument run by blockchecktest\.withStripeIf\): blockchecktest\.badCapturedParamBlocks -> func literal`
		return true
	})
}

func goodCapturedParamSpins(t *table, i uint64) bool {
	return withStripeIf(t, i, func(v uint64) bool { return v == 0 })
}

// applyIf calls keep from a literal it runs in place, outside any region
// of its own: inside a caller's region, keep is what that caller passed.
func applyIf(i uint64, keep func(uint64) bool) bool {
	run := func() bool { return keep(i) }
	return run()
}

func badBoundCapturedParam(t *table, i uint64) {
	t.locks.Lock(i)
	applyIf(i, func(uint64) bool {
		time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on t\.locks: blockchecktest\.badBoundCapturedParam -> blockchecktest\.applyIf -> func literal -> func literal`
		return true
	})
	t.locks.Unlock(i)
}

// retry runs attempt, outside any region, until it reports success.
func retry(attempt func() bool) {
	for !attempt() {
	}
}

// badNestedLitBlocks hands withStripe a literal from inside a literal of
// its own, as a write wrapped in an evict-and-retry loop does: the inner
// literal is a region all the same.
func badNestedLitBlocks(t *table, i uint64) {
	retry(func() bool {
		withStripe(t, i, func() {
			time.Sleep(1) // want `blocking time call time\.Sleep reachable inside spinlock critical section on t\.locks \(argument run by blockchecktest\.withStripe\): blockchecktest\.badNestedLitBlocks -> func literal -> func literal`
		})
		return true
	})
}
