// Package txnbodytest is the blockcheck golden for transaction bodies
// (function literals and declared helpers taking the *Txn handle): nothing
// reachable from one may have an effect that cannot roll back on abort,
// including through helpers that do not take the handle themselves.
package txnbodytest

import (
	"fmt"
	"math/bits"

	"htmlib"
)

type table struct {
	region *htmlib.Region
	index  map[uint64]int
	events chan uint64
}

func sideEffect() {}

func goodBody(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		v := tx.Load(0)
		if v == 0 {
			tx.Abort(1)
		}
		tx.Store(1, v+1)
		return nil
	})
}

func goodHelper(tx *htmlib.Txn, b uint64) uint64 {
	occ := tx.Load(uint32(b))
	tx.Store(uint32(b), occ|1)
	return occ
}

func badAllocation(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		scratch := make([]uint64, 8) // want `allocation \(make\) .*transaction body`
		scratch[0] = tx.Load(0)
		scratch = append(scratch, 1) // want `allocation \(append\) .*transaction body`
		tx.Store(0, scratch[0])
		return nil
	})
}

func badIO(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		fmt.Println(tx.Load(0)) // want `fmt\.Println .*transaction body`
		return nil
	})
}

func badGoroutine(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		go sideEffect() // want `goroutine launch.* transaction body`
		return nil
	})
}

func badDefer(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		defer sideEffect() // want `defer .*transaction body`
		return nil
	})
}

func badChannels(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		t.events <- tx.Load(0) // want `channel send .*transaction body`
		v := <-t.events        // want `channel receive .*transaction body`
		tx.Store(0, v)
		return nil
	})
}

func badPanic(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		if tx.Load(0) == 0 {
			panic("empty") // want `panic .*transaction body`
		}
		return nil
	})
}

// badHelper shows the rule follows the handle into declared helpers.
func badHelper(tx *htmlib.Txn, t *table, b uint64) {
	t.index[b] = int(tx.Load(uint32(b))) // want `map write .*transaction body`
}

// scratchFor takes no handle, but the body that calls it runs it inside
// the transaction all the same.
func scratchFor(n int) []uint64 {
	return make([]uint64, n) // want `allocation \(make\) .*transaction body: func literal -> txnbodytest\.scratchFor`
}

// mustFind panics from under a deferred recovery hook: both are effects of
// the transaction that calls it.
func mustFind(v uint64) uint64 {
	defer sideEffect() // want `defer .*transaction body`
	if v == 0 {
		panic("missing") // want `panic .*transaction body`
	}
	return v
}

// badIndirect reaches its effects only through handle-free helpers.
func badIndirect(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		s := scratchFor(4)
		s[0] = mustFind(tx.Load(0))
		tx.Store(0, s[0])
		return nil
	})
}

// goodCaller prepares state outside the transaction; only the body is held
// to the purity rules.
func goodCaller(t *table) error {
	scratch := make([]uint64, 8)
	err := t.region.Run(func(tx *htmlib.Txn) error {
		scratch[0] = tx.Load(0)
		return nil
	})
	fmt.Println(scratch[0])
	return err
}

// goodPureLibraryAndClosure calls a pure library function and a literal in
// place: neither leaves anything an abort must undo.
func goodPureLibraryAndClosure(t *table) error {
	return t.region.Run(func(tx *htmlib.Txn) error {
		n := bits.OnesCount64(tx.Load(0))
		func() { tx.Store(1, uint64(n)) }()
		return nil
	})
}
