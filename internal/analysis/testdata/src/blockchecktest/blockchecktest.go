// Package blockchecktest is the blockcheck golden: no blocking call may
// be transitively reachable from a spinlock critical section, a seqlock
// Snapshot/Validate read window, or an HTM transaction body — including
// regions opened by net-acquiring helpers and function values run inside
// a callee's region.
package blockchecktest

import (
	"fmt"
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
