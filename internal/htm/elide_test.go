package htm

import (
	"sync"
	"testing"
)

// TestFallbackSerializesSpeculation verifies the lock-subscription idiom:
// while the fallback lock is held, speculative transactions must abort and
// their effects must never interleave with the fallback holder's.
func TestFallbackSerializesSpeculation(t *testing.T) {
	r := newTestRegion(64)
	const rounds = 500
	var wg sync.WaitGroup
	// One goroutine alternates fallback executions that write a pair of
	// words atomically; others speculate on the same pair.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_ = r.RunFallback(func(tx *Txn) error {
				v := tx.Load(0)
				tx.Store(0, v+1)
				tx.Store(8, tx.Load(8)+1)
				return nil
			})
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_ = r.RunElided(PolicyTuned, func(tx *Txn) error {
					tx.SubscribeFallback()
					v := tx.Load(0)
					tx.Store(0, v+1)
					tx.Store(8, tx.Load(8)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	a, b := r.Words()[0], r.Words()[8]
	if a != b {
		t.Fatalf("pair diverged: %d vs %d", a, b)
	}
	if a != 4*rounds {
		t.Fatalf("count = %d, want %d", a, 4*rounds)
	}
}

// TestGlibcFallsBackOnCapacity: a capacity abort has no retry bit, so the
// glibc policy must go to the fallback lock and still complete correctly.
func TestGlibcFallsBackOnCapacity(t *testing.T) {
	r := NewRegion(1024, Config{ReadLines: 4, WriteLines: 2})
	err := r.RunElided(PolicyGlibc, func(tx *Txn) error {
		for i := uint32(0); i < 8; i++ {
			tx.Store(i*8, uint64(i)+1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 8; i++ {
		if r.Words()[i*8] != uint64(i)+1 {
			t.Fatalf("word %d = %d", i*8, r.Words()[i*8])
		}
	}
	s := r.Stats()
	if s.Fallbacks == 0 || s.CapacityAborts == 0 {
		t.Fatalf("expected capacity abort then fallback, got %+v", s)
	}
}

// TestTunedRetriesNoRetryBitAborts: TSX* tolerates a bounded number of
// no-retry-bit aborts before falling back; an over-capacity transaction
// therefore eventually completes under the fallback lock.
func TestTunedFallsBackEventually(t *testing.T) {
	r := NewRegion(1024, Config{ReadLines: 4, WriteLines: 2})
	err := r.RunElided(PolicyTuned, func(tx *Txn) error {
		for i := uint32(0); i < 8; i++ {
			tx.Store(i*8, 7)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1 (stats %+v)", s.Fallbacks, s)
	}
}

// TestWriteWriteConflictAborts: two transactions locking the same line,
// detected deterministically by single-stepping the protocol.
func TestWriteWriteConflictAborts(t *testing.T) {
	r := newTestRegion(64)
	tx1 := r.txPool.Get().(*Txn)
	tx2 := r.txPool.Get().(*Txn)
	defer r.txPool.Put(tx1)
	defer r.txPool.Put(tx2)

	tx1.begin(false)
	tx1.Store(0, 1) // tx1 now holds line 0

	tx2.begin(false)
	aborted := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				a, ok := p.(txAbort)
				if !ok {
					panic(p)
				}
				if a.code&AbortConflict == 0 {
					t.Errorf("abort code %v, want conflict", a.code)
				}
				// An abort that escaped its transaction would print so.
				if got := a.String(); got != "transaction abort: "+a.code.String() {
					t.Errorf("abort prints as %q", got)
				}
				aborted = true
			}
		}()
		tx2.Store(0, 2)
	}()
	if !aborted {
		t.Fatal("conflicting store did not abort")
	}
	tx2.rollback()
	if !tx1.commit() {
		t.Fatal("tx1 failed to commit")
	}
	if r.Words()[0] != 1 {
		t.Fatalf("mem[0] = %d", r.Words()[0])
	}
}

// TestReadLockedLineAborts: reading a line write-locked by another
// transaction must abort (write->read conflict).
func TestReadLockedLineAborts(t *testing.T) {
	r := newTestRegion(64)
	tx1 := r.txPool.Get().(*Txn)
	tx2 := r.txPool.Get().(*Txn)
	defer r.txPool.Put(tx1)
	defer r.txPool.Put(tx2)

	tx1.begin(false)
	tx1.Store(8, 5)

	tx2.begin(false)
	aborted := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				if a, ok := p.(txAbort); !ok || a.code&AbortConflict == 0 {
					panic(p)
				}
				aborted = true
			}
		}()
		tx2.Load(8)
	}()
	if !aborted {
		t.Fatal("read of locked line did not abort")
	}
	tx2.rollback()
	tx1.rollback() // leave region clean
}

// TestAbortBumpsVersionForOverlappedReaders: a rolled-back writer must
// still invalidate readers that observed the line mid-transaction.
func TestAbortBumpsVersion(t *testing.T) {
	r := newTestRegion(64)
	tx1 := r.txPool.Get().(*Txn)
	defer r.txPool.Put(tx1)

	// Reader records line 0's version.
	tx2 := r.txPool.Get().(*Txn)
	defer r.txPool.Put(tx2)
	tx2.begin(false)
	_ = tx2.Load(0)

	// Writer locks, writes, aborts.
	tx1.begin(false)
	tx1.Store(0, 99)
	tx1.rollback()

	// The reader's commit must now fail even though the value was
	// restored: it may have read the uncommitted 99.
	if tx2.commit() {
		t.Fatal("reader validated across an aborted writer")
	}
}

// TestRealPanicPropagates: a non-abort panic inside a transaction must roll
// back and re-panic rather than be swallowed.
func TestRealPanicPropagates(t *testing.T) {
	r := newTestRegion(64)
	defer func() {
		if recover() == nil {
			t.Fatal("panic swallowed")
		}
		if r.Words()[0] != 0 {
			t.Fatal("write survived a panicking transaction")
		}
	}()
	_, _, _ = r.Run(func(tx *Txn) error {
		tx.Store(0, 1)
		panic("boom")
	})
}

func TestPolicyStrings(t *testing.T) {
	if PolicyNone.String() != "lock" || PolicyGlibc.String() != "tsx-glibc" || PolicyTuned.String() != "tsx*" {
		t.Fatal("policy names changed")
	}
	if Policy(99).String() != "unknown" {
		t.Fatal("unknown policy name")
	}
}

func TestAbortCodeString(t *testing.T) {
	if AbortCode(0).String() != "none" {
		t.Fatal("zero code")
	}
	s := (AbortConflict | AbortRetry).String()
	if s != "retry|conflict" {
		t.Fatalf("code string = %q", s)
	}
	if (AbortExplicit | AbortLockBusy).String() != "explicit|lock-busy" {
		t.Fatalf("lock busy string = %q", (AbortExplicit | AbortLockBusy).String())
	}
}

func TestStatsAbortRate(t *testing.T) {
	s := Stats{Commits: 3, Aborts: 1}
	if s.AbortRate() != 0.25 {
		t.Fatalf("AbortRate = %v", s.AbortRate())
	}
	if (Stats{}).AbortRate() != 0 {
		t.Fatal("empty AbortRate != 0")
	}
}
