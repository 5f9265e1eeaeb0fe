package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuckoohash/internal/workload"
)

func TestEvictionOrder(t *testing.T) {
	const now = 1000
	live := func(ver uint64) item { return newItem(ver, 0, "k", "v") }
	dead := func(ver uint64) item { return newItem(ver, now-1, "k", "v") }
	cases := []struct {
		a, b item
		want bool
		why  string
	}{
		{live(1), live(2), true, "the earlier write goes first"},
		{live(2), live(1), false, "the later write does not"},
		{dead(9), live(1), true, "an expired entry goes before any live one"},
		{live(1), dead(9), false, "a live entry never goes before an expired one"},
		{dead(1), dead(2), true, "among expired entries the earlier write goes first"},
		{newItem(1, now+1, "k", "v"), live(2), true, "a TTL that has not passed does not count"},
		{live(0), live(1), true, "a pre-replication record (ver 0) is the oldest of all"},
	}
	for _, c := range cases {
		if got := c.a.olderThan(c.b, now); got != c.want {
			t.Errorf("%q olderThan %q = %v: %s", c.a, c.b, got, c.why)
		}
	}
}

// fullCache returns a one-shard cache that has started evicting, filled
// with keys "fill<i>" written with the given TTL.
func fullCache(t *testing.T, slots uint64, ttl time.Duration) *Cache {
	t.Helper()
	c, err := NewCache(1, slots)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; c.Stats().Evictions() == 0; i++ {
		if err := c.Set(fmt.Sprintf("fill%d", i), "x", ttl); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSlotsPerShardHonoured: a shard grows to exactly its configured slot
// count before it evicts. A shard grows by half from an eighth of it, and
// its last grow goes to the configured count, so -slots 100000 serves
// 100 000 slots a shard; while shards doubled it served 65 536, the last
// doubling that fit. A 2 048-slot shard, wire-set-evict's, still ends at
// 2 048 (512 buckets), so that workload's capacity cannot move.
func TestSlotsPerShardHonoured(t *testing.T) {
	for _, slots := range []uint64{100_000, 2048} {
		c := fullCache(t, slots, 0)
		if got := c.Cap(); got != slots {
			t.Errorf("SlotsPerShard %d: %d slots at the first eviction, %d entries", slots, got, c.Len())
		}
	}
	// NewCache's own defaults: at least one shard, a power of two of them.
	for _, tc := range []struct{ shards, want int }{{0, 1}, {3, 4}} {
		c, err := NewCache(tc.shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.shards) != tc.want {
			t.Errorf("NewCache(%d, 0) has %d shards, want %d", tc.shards, len(c.shards), tc.want)
		}
	}
}

// TestEvictionPrefersExpired: while the keys' buckets hold dead entries,
// no live one is evicted.
func TestEvictionPrefersExpired(t *testing.T) {
	c := fullCache(t, 256, time.Millisecond)
	time.Sleep(5 * time.Millisecond) // every resident entry is now expired, none swept
	// 24 live keys among 256 slots: the eight neighbours of a new key are
	// all live about once in 10^8 inserts.
	const n = 24
	for i := 0; i < n; i++ {
		if err := c.Set(fmt.Sprintf("live%d", i), "v", 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("live%d", i)); !ok {
			t.Errorf("live%d was evicted while expired entries shared its buckets", i)
		}
	}
}

// TestEvictionPicksOldestNeighbour: with nothing expired, the entry a SET
// displaces is older than every entry left beside the new key, and is
// never the new key.
func TestEvictionPicksOldestNeighbour(t *testing.T) {
	c := fullCache(t, 256, 0)
	tab := c.shards[0].table
	byVer := func(a, b item) bool { return a.ver() < b.ver() }
	checked := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("new%d", i)
		before, evictions := tab.Items(), c.Stats().Evictions()
		if err := c.Set(key, "v", 0); err != nil {
			t.Fatal(err)
		}
		if c.Stats().Evictions() == evictions {
			continue // a free slot in its own buckets: nothing to evict
		}
		if got := c.Stats().Evictions(); got != evictions+1 {
			t.Fatalf("SET %s evicted %d entries, want 1", key, got-evictions)
		}
		after := tab.Items()
		if _, ok := after[key]; !ok {
			t.Fatalf("%s is not resident after its own SET", key)
		}
		var victim item
		for k, e := range before {
			if _, ok := after[k]; !ok {
				victim = e
			}
		}
		if next, _, ok := tab.Oldest(key, byVer); ok && after[next].ver() < victim.ver() {
			t.Fatalf("SET %s evicted ver %d and left the older ver %d beside it", key, victim.ver(), after[next].ver())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no SET evicted")
	}
}

// TestNoRefusalAtCapacity is the regression for the refusal finding in
// benchmark/README.md: with FIFO eviction a freed slot was somewhere in
// the shard, a 32 768-slot shard is sixteen search budgets wide, and
// about one SET in 300 was refused after eight rounds.
func TestNoRefusalAtCapacity(t *testing.T) {
	const shards, slots = 4, 32768
	n := 1_000_000
	if testing.Short() || raceEnabled {
		n = 250_000 // the cache is full after 140 000, and the ring refused within hundreds more
	}
	c, err := NewCache(shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	rnd := workload.NewRand(1)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%015d", rnd.Intn(4*shards*slots))
		if err := c.Set(key, "v", 0); err != nil {
			t.Fatalf("SET %d (%s): %v; %d evictions, %d of %d slots used", i, key, err, c.Stats().Evictions(), c.Len(), c.Cap())
		}
	}
	if c.Stats().Evictions() == 0 {
		t.Fatal("the cache never filled")
	}
}

// TestZipfHitRatioMatchesFIFO is the condition the eviction ring was
// deleted on: on a skewed stream over four times the capacity, evicting the
// oldest write among eight neighbours keeps the hit ratio of an exact
// FIFO of the same capacity.
func TestZipfHitRatioMatchesFIFO(t *testing.T) {
	const shards, slots = 4, 4096
	c, err := NewCache(shards, slots)
	if err != nil {
		t.Fatal(err)
	}
	// The reference: a FIFO over insertion order; an overwrite keeps its
	// place in the queue, as it kept its record in the ring.
	resident := make(map[uint64]bool, shards*slots)
	queue := make([]uint64, 0, shards*slots)

	keys := workload.NewZipfKeys(1, 4*shards*slots, 0.99)
	ops := workload.NewRand(2)
	var gets, hits, fifoHits int
	for i := 0; i < 600_000; i++ {
		k := keys.NextKey()
		key := fmt.Sprintf("%016x", k)
		if ops.Intn(2) == 0 {
			if err := c.Set(key, "v", 0); err != nil {
				t.Fatal(err)
			}
			if !resident[k] {
				if len(queue) == shards*slots {
					delete(resident, queue[0])
					queue = queue[1:]
				}
				resident[k] = true
				queue = append(queue, k)
			}
			continue
		}
		if i < 200_000 {
			continue // both caches are still filling
		}
		gets++
		if _, ok := c.Get(key); ok {
			hits++
		}
		if resident[k] {
			fifoHits++
		}
	}
	got, want := float64(hits)/float64(gets), float64(fifoHits)/float64(gets)
	t.Logf("hit ratio %.4f, exact FIFO %.4f, over %d GETs; %d evictions", got, want, gets, c.Stats().Evictions())
	if got < want-0.02 {
		t.Fatalf("hit ratio %.4f is more than 0.02 below an exact FIFO's %.4f", got, want)
	}
}

// TestEvictionStorm: concurrent writers of fresh keys on one tiny shard
// evict each other's neighbours and take each other's freed slots. None
// may be refused, the shard never overfills, and every entry that left
// was counted as exactly one eviction.
func TestEvictionStorm(t *testing.T) {
	c, err := NewCache(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 5000
	var sets atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Never repeated: every SET is a new-key insert.
				if err := c.Set(fmt.Sprintf("w%d-%d", w, i), "v", 0); err != nil {
					t.Errorf("writer %d SET %d: %v", w, i, err)
					return
				}
				sets.Add(1)
				c.Get(fmt.Sprintf("w%d-%d", (w+1)%writers, i))
				if n, limit := c.Len(), c.Cap(); n > limit {
					t.Errorf("Len %d exceeds Cap %d", n, limit)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Stats().Evictions(), sets.Load()-c.Len(); got != want {
		t.Fatalf("evictions = %d, want %d new-key inserts - %d resident = %d", got, sets.Load(), c.Len(), want)
	}
}

// TestEvictingSetBuildsOneItem: a SET sent away to evict stores, on its
// retry, the item it built before its first attempt — one item per SET,
// not one per attempt. With a 4 KB value the item is nearly all a SET
// allocates, so the bytes allocated per evicting SET stay under one and a
// half items; a rebuild per attempt would allocate two.
func TestEvictingSetBuildsOneItem(t *testing.T) {
	c := fullCache(t, 256, 0)
	const sets = 400
	val := bytes.Repeat([]byte("v"), 4096)
	keys := make([][]byte, sets)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("fresh%d", i))
	}
	itemBytes := allocated(func() {
		for _, k := range keys {
			builtItem = newItem(1, 0, k, val)
		}
	}) / sets
	evicted := c.Stats().Evictions()
	perSet := allocated(func() {
		for _, k := range keys {
			if _, err := c.set(k, val, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	}) / sets
	evicted = c.Stats().Evictions() - evicted
	if evicted < sets/2 {
		t.Fatalf("only %d of %d SETs evicted", evicted, sets)
	}
	t.Logf("%d B allocated per SET for a %d B item, %d of %d SETs evicting", perSet, itemBytes, evicted, sets)
	if 2*perSet >= 3*itemBytes {
		t.Errorf("over one and a half items allocated per SET: the retry rebuilt its item")
	}
}

// builtItem keeps the items TestEvictingSetBuildsOneItem builds alive.
var builtItem item

// allocated is the heap bytes allocated while f runs.
func allocated(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// TestEvictRetryKeepsVersionsMonotonic: writers race on a key universe a
// little over twice a full shard, so nearly every SET evicts and the same
// key is regularly written by two of them at once — the case in which a
// retry must not store the item (and version) it built before another
// writer's newer one landed. A reader follows every key: whenever a key is
// present its version is never lower than the last one seen for it.
func TestEvictRetryKeepsVersionsMonotonic(t *testing.T) {
	c := fullCache(t, 256, 0)
	const universe, writers, perWriter = 600, 4, 15000
	keys := make([][]byte, universe)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("racing-key-%03d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := workload.NewRand(uint64(w + 1))
			for i := 0; i < perWriter; i++ {
				if _, err := c.set(keys[rnd.Intn(universe)], []byte("v"), 0, nil); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := make([]uint64, universe)
	for reading := true; reading; {
		select {
		case <-done:
			reading = false // one more pass over the settled table
		default:
		}
		for i, k := range keys {
			if it, ok := c.get(k, nil); ok {
				if v := it.ver(); v < last[i] {
					t.Fatalf("%s went from version %d back to %d", k, last[i], v)
				} else {
					last[i] = v
				}
			}
		}
	}
}
