package replica

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestLogAppendDrainFIFO(t *testing.T) {
	l := NewLog(8)
	for i := 0; i < 5; i++ {
		l.Append(Entry{Key: string(rune('a' + i)), Ver: uint64(i + 1), EnqueuedAt: int64(i + 1)})
	}
	if got := l.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if got := l.OldestEnqueuedAt(); got != 1 {
		t.Fatalf("OldestEnqueuedAt = %d, want 1", got)
	}
	batch := l.Drain(nil, 3)
	if len(batch) != 3 || batch[0].Key != "a" || batch[2].Key != "c" {
		t.Fatalf("first drain = %+v", batch)
	}
	batch = l.Drain(batch, 10)
	if len(batch) != 2 || batch[0].Key != "d" || batch[1].Key != "e" {
		t.Fatalf("second drain = %+v", batch)
	}
	if l.Len() != 0 || l.OldestEnqueuedAt() != 0 {
		t.Fatalf("log not empty after drain: len=%d", l.Len())
	}
	if l.TakeOverflow() {
		t.Fatal("unexpected overflow flag")
	}
}

func TestLogOverflowDropsOldestAndLatches(t *testing.T) {
	l := NewLog(2)
	l.Append(Entry{Ver: 1})
	l.Append(Entry{Ver: 2})
	l.Append(Entry{Ver: 3}) // drops ver 1
	batch := l.Drain(nil, 10)
	if len(batch) != 2 || batch[0].Ver != 2 || batch[1].Ver != 3 {
		t.Fatalf("drain after overflow = %+v", batch)
	}
	if !l.TakeOverflow() {
		t.Fatal("overflow flag not latched")
	}
	if l.TakeOverflow() {
		t.Fatal("overflow flag not cleared by TakeOverflow")
	}
	st := l.Stats()
	if st.Enqueued != 3 || st.Dropped != 1 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
	l.ForceCatchup()
	if !l.TakeOverflow() {
		t.Fatal("ForceCatchup did not latch the flag")
	}
}

func TestLogConcurrentAppendDrain(t *testing.T) {
	l := NewLog(64)
	const producers, perProducer = 4, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				l.Append(Entry{Ver: uint64(i + 1)})
			}
		}()
	}
	done := make(chan struct{})
	var drained uint64
	go func() {
		defer close(done)
		buf := make([]Entry, 0, 32)
		for {
			buf = l.Drain(buf, 32)
			drained += uint64(len(buf))
			if len(buf) == 0 {
				st := l.Stats()
				if st.Depth == 0 && st.Enqueued == producers*perProducer {
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	st := l.Stats()
	if drained+st.Dropped != producers*perProducer {
		t.Fatalf("drained %d + dropped %d != enqueued %d", drained, st.Dropped, st.Enqueued)
	}
}

func TestLeaseGrantWaitFill(t *testing.T) {
	lt := NewLeaseTable(0)
	now := int64(1_000_000)
	tok, granted, _ := lt.Acquire("k", now)
	if !granted || tok == 0 {
		t.Fatalf("first acquire: granted=%v tok=%d", granted, tok)
	}
	if lt.Active() != 1 {
		t.Fatalf("active = %d, want 1", lt.Active())
	}
	_, granted2, wait := lt.Acquire("k", now+1)
	if granted2 || wait != DefaultWaitHintMS {
		t.Fatalf("second acquire: granted=%v wait=%d", granted2, wait)
	}
	if !lt.ValidateRelease("k", tok, now+2) {
		t.Fatal("fill with the winning token rejected")
	}
	if lt.Active() != 0 {
		t.Fatalf("active after release = %d", lt.Active())
	}
	// The lease is gone: a second release with the same token fails.
	if lt.ValidateRelease("k", tok, now+3) {
		t.Fatal("token valid after release")
	}
}

func TestLeaseExpiryRegrants(t *testing.T) {
	lt := NewLeaseTable(100) // 100ns lease
	tok1, granted, _ := lt.Acquire("k", 1000)
	if !granted {
		t.Fatal("first acquire not granted")
	}
	tok2, granted2, _ := lt.Acquire("k", 2000) // past expiry
	if !granted2 || tok2 == tok1 {
		t.Fatalf("expired lease not re-granted: granted=%v", granted2)
	}
	if lt.Active() != 1 {
		t.Fatalf("active = %d after re-grant, want 1", lt.Active())
	}
	// The crashed filler's stale token must not validate.
	if lt.ValidateRelease("k", tok1, 2001) {
		t.Fatal("stale token validated")
	}
	// ...and that failed validation consumed the live lease (the key
	// was published or will be re-leased), so tok2 is dead too.
	if lt.ValidateRelease("k", tok2, 2002) {
		t.Fatal("token survived a competing release")
	}
}

func TestLeaseInvalidateOnWrite(t *testing.T) {
	lt := NewLeaseTable(0)
	tok, _, _ := lt.Acquire("k", 1000)
	if !lt.Invalidate("k") {
		t.Fatal("invalidate found no lease")
	}
	if lt.Active() != 0 {
		t.Fatalf("active = %d after invalidate", lt.Active())
	}
	if lt.ValidateRelease("k", tok, 1001) {
		t.Fatal("token valid after invalidation")
	}
	if lt.Invalidate("k") {
		t.Fatal("second invalidate reported a lease")
	}
}

// TestAcquireKeepsACopy: the lease table outlives the request that asked
// for the lease, so it must keep its own copy of the key — handed a
// substring of something larger (a stored record, a read buffer's string)
// it would keep all of it alive for the lease's lifetime. 64 leases on
// 64-byte substrings of 64 KB strings: the table may hold kilobytes, not
// the four megabytes they were cut from.
func TestAcquireKeepsACopy(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	tbl := NewLeaseTable(0)
	base := liveHeap()
	for i := 0; i < 64; i++ {
		big := strings.Repeat(string(rune('a'+i%26)), 64<<10) + fmt.Sprint(i)
		if _, granted, _ := tbl.Acquire(big[len(big)-64:], 1); !granted {
			t.Fatalf("lease %d not granted", i)
		}
	}
	if grown := int64(liveHeap()) - int64(base); grown > 1<<20 {
		t.Errorf("64 leases keep %d bytes alive: the table holds its callers' strings, not copies", grown)
	}
	if tbl.Active() != 64 {
		t.Fatalf("%d leases active, want 64", tbl.Active())
	}
}
