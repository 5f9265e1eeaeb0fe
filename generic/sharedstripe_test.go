package generic

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sharedStripeTags returns the tags that put both of a key's buckets on one
// stripe, from some bucket of a table of that many buckets and stripes.
func sharedStripeTags(buckets, stripes uint64) []uint8 {
	var tags []uint8
	for tag := 1; tag <= 255; tag++ {
		for b := range buckets {
			if altOf(b, uint8(tag), buckets)&(stripes-1) == b&(stripes-1) {
				tags = append(tags, uint8(tag))
				break
			}
		}
	}
	return tags
}

// sharedStripeKeys returns n keys with a prefix of their own.
func sharedStripeKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return keys
}

// completes runs f and panics, with every goroutine's stack, if it has not
// returned within a minute: a stripe taken twice by one goroutine spins
// forever rather than failing.
func completes(what string, f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		panic(what + " did not complete: a key whose buckets share a stripe deadlocked")
	}
}

// TestSharedStripeKey: buckets a key locks together that share a stripe are
// locked once (LockPair and LockOrdered dedup). A key's own two buckets add
// up to an odd number (altOf), so they differ in the low bit IndexFor keeps
// and never share one of two or more stripes — the test asserts that at a
// cuckood shard's cap, 512 buckets over 256 stripes, and at 768, rather than
// passing over it — but its buckets in two generations often do. In a table
// of one stripe every bucket a key touches is on it, so there every
// operation takes that stripe once: insert, get, delete, Oldest, an eviction
// (Oldest, then a delete, then the insert lands), a migration step out of a
// draining generation, and path displacements during the fill. First one
// goroutine, then four writers beside a migrator and a filler.
func TestSharedStripeKey(t *testing.T) {
	for _, buckets := range []uint64{512, 768} {
		if tags := sharedStripeTags(buckets, 256); len(tags) != 0 {
			t.Fatalf("tags %v share a stripe in %d buckets over 256 stripes; none may", tags, buckets)
		}
	}
	if tags := sharedStripeTags(512, 1); len(tags) != 255 {
		t.Fatalf("%d tags share the one stripe, want all 255", len(tags))
	}
	cfg := Config{InitialCapacity: 1024, MaxCapacity: 2048}
	t.Run("sequence", func(t *testing.T) {
		eachConstruction(t, cfg, func(t *testing.T, tab *Table[string, rec]) {
			withStripes(tab, 1)
			keys := sharedStripeKeys("shared", 64)
			completes("one goroutine's operations", func() { sharedStripeSequence(t, tab, keys) })
			for tab.Growing() { // the fill's grow to the cap started a sweeper
				tab.migrateBatch(64)
			}
			checkSlots(t, tab)
		})
	})
	t.Run("concurrent", func(t *testing.T) {
		eachConstruction(t, cfg, func(t *testing.T, tab *Table[string, rec]) {
			withStripes(tab, 1)
			keys := make([][]string, 4)
			for w := range keys {
				keys[w] = sharedStripeKeys(fmt.Sprintf("writer%d", w), 8)
			}
			completes("the concurrent phase", func() { sharedStripeConcurrent(t, tab, keys) })
			for tab.Growing() {
				tab.migrateBatch(64)
			}
			checkSlots(t, tab)
		})
	})
}

// sharedStripeSequence drives keys through every operation, from a table of
// 256 buckets still under its cap to one at its cap and refusing inserts: the
// first five through the migration, the rest one by one into the full table
// until one is refused.
func sharedStripeSequence(t *testing.T, tab *Table[string, rec], keys []string) {
	for i, k := range keys[:4] {
		if err := tab.Insert(k, rec{key: k, n: i}); err != nil {
			t.Errorf("Insert(%s): %v", k, err)
			return
		}
	}
	forceGrow(tab) // 384 live buckets and 256 draining
	if st := tab.loadState(); st.live.buckets != 384 || len(st.olds) != 1 || tab.locks.Len() != 1 {
		t.Errorf("%d live buckets, %d draining generations and %d stripes, want 384, 1 and 1",
			st.live.buckets, len(st.olds), tab.locks.Len())
		return
	}
	older := func(a, b rec) bool { return a.n < b.n }
	if err := tab.Insert(keys[4], rec{key: keys[4], n: 4}); err != nil {
		t.Errorf("Insert(%s) mid-migration: %v", keys[4], err)
	}
	for i, k := range keys[:5] {
		if v, ok := tab.Get(k); !ok || v.n != i {
			t.Errorf("Get(%s) mid-migration = %v, %v", k, v, ok)
		}
		tab.Oldest(k, older)
	}
	if !tab.Delete(keys[0]) {
		t.Errorf("Delete(%s) mid-migration found nothing", keys[0])
	}
	for tab.Growing() {
		tab.migrateBatch(1)
	}
	for i, k := range keys[1:5] {
		if v, ok := tab.Get(k); !ok || v.n != i+1 {
			t.Errorf("Get(%s) after the migration = %v, %v", k, v, ok)
		}
	}

	// Fill to the first refusal, then insert the other keys until one is
	// refused, and evict for it from its own two buckets.
	for i := 0; ; i++ {
		f := fmt.Sprintf("filler-%d", i)
		if err := tab.Insert(f, rec{key: f, n: 1000 + i}); errors.Is(err, ErrFull) {
			break
		} else if err != nil {
			t.Errorf("Insert(%s): %v", f, err)
			return
		}
	}
	for _, k := range keys[5:] {
		err := tab.Insert(k, rec{key: k, n: 1 << 20})
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrFull) {
			t.Errorf("Insert(%s): %v", k, err)
			return
		}
		victim, _, ok := tab.Oldest(k, older)
		if !ok || !tab.Delete(victim) {
			t.Errorf("Oldest(%s) = %s, %v, and it could not be deleted", k, victim, ok)
			return
		}
		if err := tab.Insert(k, rec{key: k, n: 1 << 20}); err != nil {
			t.Errorf("Insert(%s) after evicting %s: %v", k, victim, err)
		}
		if v, ok := tab.Get(k); !ok || v.key != k {
			t.Errorf("Get(%s) after its eviction = %v, %v", k, v, ok)
		}
		if !tab.Delete(k) {
			t.Errorf("Delete(%s) found nothing", k)
		}
		return
	}
	t.Errorf("none of %d shared-stripe keys was refused by a table at its first refusal", len(keys)-5)
}

// sharedStripeConcurrent runs one writer per set of keys, shared-stripe keys
// nobody else writes — upsert, evicting a neighbour when refused, read back,
// Oldest, delete — beside a migrator draining the 256-bucket generation and
// a filler that brings the table to its cap; each writer goes on for
// perWriter operations once the table is there, so that its inserts are
// refused and evict.
func sharedStripeConcurrent(t *testing.T, tab *Table[string, rec], keys [][]string) {
	for i := range 700 {
		f := fmt.Sprintf("resident-%d", i)
		if err := tab.Insert(f, rec{key: f, n: i}); err != nil {
			t.Errorf("Insert(%s): %v", f, err)
			return
		}
	}
	forceGrow(tab)
	const perWriter = 400
	older := func(a, b rec) bool { return a.n < b.n }
	var full atomic.Bool
	var evictions atomic.Int64
	defer func() { t.Logf("%d evictions by the writers, %d entries", evictions.Load(), tab.Len()) }()
	var wg sync.WaitGroup
	wg.Add(2 + len(keys))
	go func() {
		defer wg.Done()
		for tab.Growing() {
			tab.migrateBatch(1)
		}
	}()
	go func() {
		defer wg.Done()
		defer full.Store(true)
		for i := 0; ; i++ {
			f := fmt.Sprintf("filler-%d", i)
			if err := tab.Upsert(f, rec{key: f, n: 1000 + i}); err != nil {
				return // the table is at its cap
			}
		}
	}()
	for w, keys := range keys {
		go func() {
			defer wg.Done()
			for i, after := 0, 0; after < perWriter; i++ {
				if full.Load() {
					after++
				}
				k := keys[i%len(keys)]
				v := rec{key: k, n: 1<<20 + i}
				for tries := 0; tab.Upsert(k, v) != nil; tries++ {
					if victim, _, ok := tab.Oldest(k, older); ok && tab.Delete(victim) {
						evictions.Add(1)
					}
					if tries > 64 {
						t.Errorf("writer %d: %s refused after %d evictions", w, k, tries)
						return
					}
				}
				// Another writer may have evicted it since; nobody else writes it.
				if got, ok := tab.Get(k); ok && got != v {
					t.Errorf("writer %d: Get(%s) = %v, wrote %v", w, k, got, v)
					return
				}
				tab.Oldest(k, older)
				if i%2 == 0 {
					tab.Delete(k)
				}
			}
		}()
	}
	wg.Wait()
}
