package spinlock

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMutexMutualExclusion(t *testing.T) {
	var mu Mutex
	counter := 0
	const threads = 8
	const per = 10000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < per; n++ {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != threads*per {
		t.Fatalf("counter = %d, want %d", counter, threads*per)
	}
}

func TestMutexTryLock(t *testing.T) {
	var mu Mutex
	if !mu.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if mu.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	if !mu.Locked() {
		t.Fatal("Locked() false while held")
	}
	mu.Unlock()
	if mu.Locked() {
		t.Fatal("Locked() true after unlock")
	}
}

func TestStripeCreation(t *testing.T) {
	for _, n := range []int{0, -1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStripe(%d) did not panic", n)
				}
			}()
			NewStripe(n)
		}()
	}
	s := NewStripe(8)
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStripeIndexFor(t *testing.T) {
	s := NewStripe(16)
	for b := uint64(0); b < 100; b++ {
		if got := s.IndexFor(b); got != b%16 {
			t.Fatalf("IndexFor(%d) = %d", b, got)
		}
	}
}

func TestStripeVersionBumpOnUnlock(t *testing.T) {
	s := NewStripe(4)
	v0, _ := s.Snapshot(1)
	s.Lock(1)
	if !s.Locked(1) {
		t.Fatal("not locked")
	}
	if _, ok := s.Snapshot(1); ok {
		t.Fatal("Snapshot of locked stripe reported ok")
	}
	s.Unlock(1)
	if s.Locked(1) {
		t.Fatal("still locked")
	}
	if v, _ := s.Snapshot(1); v == v0 {
		t.Fatal("version did not advance across lock/unlock")
	}
}

func TestStripeSnapshotValidate(t *testing.T) {
	s := NewStripe(4)
	v, ok := s.Snapshot(2)
	if !ok {
		t.Fatal("snapshot of free stripe failed")
	}
	if !s.Validate(2, v) {
		t.Fatal("validate immediately after snapshot failed")
	}
	s.Lock(2)
	if s.Validate(2, v) {
		t.Fatal("validate of locked stripe passed")
	}
	s.Unlock(2)
	if s.Validate(2, v) {
		t.Fatal("validate across a writer passed")
	}
}

func TestStripePairOrdering(t *testing.T) {
	s := NewStripe(8)
	// Same stripe: one lock only (a second Lock would deadlock).
	s.LockPair(3, 3)
	s.UnlockPair(3, 3)
	// Reversed order must not deadlock against forward order.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 5000; n++ {
				if i%2 == 0 {
					s.LockPair(1, 6)
					s.UnlockPair(1, 6)
				} else {
					s.LockPair(6, 1)
					s.UnlockPair(6, 1)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestStripeLockAll(t *testing.T) {
	s := NewStripe(16)
	s.LockAll()
	for i := uint64(0); i < 16; i++ {
		if !s.Locked(i) {
			t.Fatalf("stripe %d not locked by LockAll", i)
		}
	}
	s.UnlockAll()
	for i := uint64(0); i < 16; i++ {
		if s.Locked(i) {
			t.Fatalf("stripe %d still locked after UnlockAll", i)
		}
	}
}

// TestStripeSeqlockProtocol drives a writer mutating a two-word invariant
// under the stripe while readers use Snapshot/Validate; no reader may
// observe a torn pair.
func TestStripeSeqlockProtocol(t *testing.T) {
	s := NewStripe(2)
	var a, b uint64 // invariant: a == b (writers keep them equal)
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Lock(0)
			storeU64(&a, i)
			storeU64(&b, i)
			s.Unlock(0)
		}
	}()
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for n := 0; n < 50000; n++ {
				v, ok := s.Snapshot(0)
				if !ok {
					continue
				}
				x := loadU64(&a)
				y := loadU64(&b)
				if s.Validate(0, v) && x != y {
					t.Errorf("torn read validated: a=%d b=%d", x, y)
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

func TestStripeQuickProperties(t *testing.T) {
	s := NewStripe(64)
	prop := func(idx uint64) bool {
		i := idx % 64
		v0, _ := s.Snapshot(i)
		s.Lock(i)
		s.Unlock(i)
		// Version strictly advances and lock is free again.
		v, _ := s.Snapshot(i)
		return v != v0 && !s.Locked(i)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeLockOrdered(t *testing.T) {
	s := NewStripe(8)
	held, waited := s.LockOrdered([]uint64{5, 1, 3, 1, 5})
	if waited {
		t.Fatal("LockOrdered of free stripes reported a wait")
	}
	if want := []uint64{1, 3, 5}; len(held) != len(want) {
		t.Fatalf("LockOrdered dedup = %v, want %v", held, want)
	} else {
		for i := range want {
			if held[i] != want[i] {
				t.Fatalf("LockOrdered dedup = %v, want %v", held, want)
			}
		}
	}
	for _, i := range held {
		if !s.Locked(i) {
			t.Fatalf("stripe %d not locked after LockOrdered", i)
		}
	}
	for _, i := range []uint64{0, 2, 4, 6, 7} {
		if s.Locked(i) {
			t.Fatalf("stripe %d locked but not requested", i)
		}
	}
	s.UnlockOrdered(held)
	for i := uint64(0); i < 8; i++ {
		if s.Locked(i) {
			t.Fatalf("stripe %d still locked after UnlockOrdered", i)
		}
	}
	// Each locked stripe's version advanced exactly once.
	for _, i := range held {
		if v, _ := s.Snapshot(i); v != 1 {
			t.Fatalf("stripe %d version = %d after one lock/unlock, want 1", i, v)
		}
	}
	// A stripe another holds is waited for, and the wait is reported.
	s.Lock(3)
	got := make(chan bool)
	go func() {
		held, waited := s.LockOrdered([]uint64{3, 6})
		s.UnlockOrdered(held)
		got <- waited
	}()
	for s.Stats().Contended == 0 {
		runtime.Gosched()
	}
	s.Unlock(3)
	if !<-got {
		t.Fatal("LockOrdered that had to wait for a held stripe reported none")
	}
}

func TestStripeLockOrderedConcurrent(t *testing.T) {
	// Overlapping stripe sets acquired from many goroutines in arbitrary
	// request order must neither deadlock nor corrupt the lock words.
	s := NewStripe(16)
	var wg sync.WaitGroup
	var counter int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sets := [][]uint64{
				{3, 7, 1}, {7, 3}, {1, 15, 7}, {15, 3, 1, 7},
			}
			for n := 0; n < 2000; n++ {
				idxs := append([]uint64(nil), sets[(g+n)%len(sets)]...)
				held, _ := s.LockOrdered(idxs)
				counter++ // data race iff mutual exclusion is broken
				s.UnlockOrdered(held)
			}
		}(g)
	}
	wg.Wait()
	_ = counter
}
