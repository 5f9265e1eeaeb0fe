package server

import (
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// Promote and NoPromotion are the split-table handles BenchmarkIncrZipf
// (bench_test.go, package server_test) takes: force a key hot, and keep
// contention from promoting any.
func (c *Cache) Promote(key string) bool { return c.split.promote(key) }
func (c *Cache) NoPromotion()            { c.split.promoteAfter = -1 }

// newSplitCache is a cache whose counters are promoted after promote
// contended pins.
func newSplitCache(t *testing.T, promote int) *Cache {
	t.Helper()
	c, err := NewCache(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	c.split.promoteAfter = promote
	return c
}

// stored is key's value in its shard, read without the fold a GET makes.
func stored(c *Cache, key string) (string, bool) {
	it, ok := c.shards[c.shardFor(key)].table.Get(key)
	if !ok {
		return "", false
	}
	return it.val(), true
}

// get is key's value as a GET reads it; a miss fails the test.
func get(t *testing.T, c *Cache, key string) string {
	t.Helper()
	v, ok := c.Get(key)
	if !ok {
		t.Fatalf("%s missing", key)
	}
	return v
}

func TestIncrBasics(t *testing.T) {
	c := newSplitCache(t, -1)
	for _, d := range []int64{1, 41} {
		if err := c.Incr("c", d, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := get(t, c, "c"); got != "42" {
		t.Fatalf("c = %q, want 42", got)
	}
	if err := c.Incr("c", -2, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := get(t, c, "c"); got != "40" {
		t.Fatalf("c = %q, want 40", got)
	}
	if err := c.Set("junk", "not-a-number", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Incr("junk", 1, 0, nil); err != ErrNotInteger {
		t.Fatalf("Incr on junk = %v, want ErrNotInteger", err)
	}
	if got := get(t, c, "junk"); got != "not-a-number" {
		t.Fatalf("junk = %q after a failed Incr, want it unchanged", got)
	}
}

func TestMaxUpdate(t *testing.T) {
	c := newSplitCache(t, -1)
	for _, n := range []int64{5, 3, 9, 7} {
		if err := c.MaxUpdate("m", n, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := get(t, c, "m"); got != "9" {
		t.Fatalf("m = %q, want 9", got)
	}
}

func TestCAS(t *testing.T) {
	c := newSplitCache(t, -1)
	if st, err := c.CAS("k", "a", "b", nil); st != StatusMiss || err != nil {
		t.Fatalf("CAS on missing = %v, %v; want StatusMiss", st, err)
	}
	if err := c.Set("k", "a", 0); err != nil {
		t.Fatal(err)
	}
	if st, err := c.CAS("k", "x", "b", nil); st != StatusConflict || err != nil {
		t.Fatalf("CAS wrong old = %v, %v; want StatusConflict", st, err)
	}
	if st, err := c.CAS("k", "a", "b", nil); st != StatusOK || err != nil {
		t.Fatalf("CAS matching = %v, %v; want StatusOK", st, err)
	}
	if got := get(t, c, "k"); got != "b" {
		t.Fatalf("k = %q, want b", got)
	}
	if got := c.casConflicts.Load(); got != 1 {
		t.Fatalf("casConflicts = %d, want 1", got)
	}
}

func TestConcurrentIncrExact(t *testing.T) {
	// The headline counter-exactness property: G goroutines × N INCRs
	// each, across direct, contended, and split regimes, must sum
	// exactly — no lost or double-applied update. Two regimes: the key
	// promoted up front, so every op races the split/fold machinery; and
	// organic, where promotion happens only when INCRs' pins of the key
	// wait for each other (how often is the scheduler's business, so only
	// the sum is asserted).
	const goroutines, perG = 8, 5000
	for _, promoted := range []bool{true, false} {
		c := newSplitCache(t, 1)
		if promoted {
			c.split.noteContention("hot", classAdd)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < perG; n++ {
					if err := c.Incr("hot", 1, uint64(g), nil); err != nil {
						t.Errorf("Incr: %v", err)
						return
					}
					if n%64 == 0 {
						c.tick() // interleave phase boundaries with updates
					}
				}
			}(g)
		}
		wg.Wait()
		c.reconcileAll()
		if got, _ := stored(c, "hot"); got != strconv.Itoa(goroutines*perG) {
			t.Fatalf("promoted=%v: hot = %s, want %d", promoted, got, goroutines*perG)
		}
		if promoted && c.split.splitOps.Load() == 0 {
			t.Fatal("no ops took the split path; promotion never engaged")
		}
		t.Logf("promoted=%v: promotions=%d split ops=%d", promoted, c.split.promotions.Load(), c.split.splitOps.Load())
	}
}

func TestContentionPromotes(t *testing.T) {
	c := newSplitCache(t, 3)
	for i := 0; i < 2; i++ {
		c.split.noteContention("h", classAdd)
	}
	if _, hot := c.split.lookup("h"); hot {
		t.Fatal("promoted below threshold")
	}
	c.split.noteContention("h", classAdd)
	if _, hot := c.split.lookup("h"); !hot {
		t.Fatal("not promoted at threshold")
	}
	if got := c.split.promotions.Load(); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
}

func TestReconcileOnRead(t *testing.T) {
	c := newSplitCache(t, 1)
	// Force promotion by pre-seeding contention, then verify a read-side
	// reconcile folds pending deltas.
	c.split.noteContention("h", classAdd)
	if _, hot := c.split.lookup("h"); !hot {
		t.Fatal("h not promoted")
	}
	for i := 0; i < 10; i++ {
		c.Incr("h", 1, uint64(i), nil)
	}
	if v, ok := stored(c, "h"); ok {
		t.Fatalf("h reconciled too early: %q", v)
	}
	c.reconcileKeyBytes([]byte("h"))
	if got, _ := stored(c, "h"); got != "10" {
		t.Fatalf("h = %q, want 10 after read reconcile", got)
	}
}

func TestTickDemotesIdleKeys(t *testing.T) {
	c := newSplitCache(t, 1)
	c.split.noteContention("h", classAdd)
	c.Incr("h", 3, 1, nil)
	c.tick() // folds 3
	if got, _ := stored(c, "h"); got != "3" {
		t.Fatalf("h = %q, want 3", got)
	}
	c.tick() // idle 1
	c.tick() // idle 2 → demote
	if _, hot := c.split.lookup("h"); hot {
		t.Fatal("h still hot after two idle ticks")
	}
	if got := c.split.demotions.Load(); got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}
}

func TestSetAndDeleteFoldPendingDeltas(t *testing.T) {
	c := newSplitCache(t, 1)
	c.split.noteContention("h", classAdd)
	c.Incr("h", 5, 0, nil)
	// A SET discards, under the pin that writes, the pending INCRs its
	// value replaces.
	if err := c.Set("h", "100", 0); err != nil {
		t.Fatal(err)
	}
	if got := c.split.splitOps.Load(); got != 1 {
		t.Fatalf("SET drained %d pending split ops, want 1", got)
	}
	c.reconcileAll()
	if got, _ := stored(c, "h"); got != "100" {
		t.Fatalf("h = %q after a fold, want 100: the discarded delta came back", got)
	}
	c.Incr("h", 5, 0, nil)
	// A DEL queued in a transaction folds them: the load under the pin
	// takes the deltas, then the entry goes with them.
	c.Exec([]Op{{Kind: OpDel, Key: "h"}}, nil)
	if v, ok := stored(c, "h"); ok {
		t.Fatalf("h survived delete: %q", v)
	}
	// A delta arriving after the delete restarts the counter from zero.
	c.Incr("h", 7, 0, nil)
	c.reconcileAll()
	if got, _ := stored(c, "h"); got != "7" {
		t.Fatalf("h = %q, want 7 after post-delete INCR", got)
	}
}

func TestSplitShardPadding(t *testing.T) {
	// One shard per cache line: concurrent split updates from different
	// hints must not false-share.
	if sz := unsafe.Sizeof(splitShard{}); sz%64 != 0 {
		t.Fatalf("splitShard is %d bytes; want a multiple of 64", sz)
	}
}
