package server

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cuckoohash/internal/cluster"
	"cuckoohash/internal/obs"
	"cuckoohash/internal/replica"
)

// liveHeapBytes is the heap still reachable after two collections (the
// second frees what the first one's sweep finalised).
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesPerItem pins the shard layout — a tag byte and one eight-byte
// pointer per slot, one allocation per item — by what a resident item costs
// in live heap, everything a Cache allocates included: 8 shards x 65 536
// slots and 200 000 items through Cache.Set, the repository benchmark's
// prefill (shards grow by half and stop at 27 648 slots, 90 % full). What an
// item costs there is 1.106 slots of 9 bytes (9.95), its size class and
// 2 B of per-cache fixtures (stripes, size and stats counters, histograms)
// — 75.9 B for the benchmark's 16-byte key and 32-byte value, a 58-byte
// item in the 64-byte class. While shards doubled they stopped at 32 768
// slots, 76 % full: 1.31 slots (11.8 B) and 77.7 B. The layouts before this
// one read 92.6 B here (a 16-byte string header per slot and an occupancy
// word per bucket) and 118.3 B (a 16-byte key header + 32-byte entry per
// slot, two heap objects per item). Three shapes, so the bound is not
// fitted to one size class: that one, the same with a TTL (eight more
// header bytes: the 80-byte class), and a 200-byte value (a 227-byte item
// in the 240-byte class). Each bound is the measured figure plus 3 B.
//
// The fourth shape is the repository benchmark's evicting one,
// wire-set-evict's set-up: 64 shards of 2 048 slots at their cap, filled by
// uniform SETs over a universe four times the capacity until capacity/16
// evictions, 0.98 full. There a shard's fixtures are priced per slot, and
// its bound is the measured 76.6 B plus 0.3: one lock word per two buckets
// and one counter line pair per cache shard, with no latency-histogram
// shard or hot-key map until a connection records into it. The same with
// those allocated up front read 77.0, and a lock word per bucket and nine
// line pairs per shard 79.4.
func TestBytesPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the layout's")
	}
	const items = 200_000
	for _, tc := range []struct {
		name     string
		vlen     int
		ttl      time.Duration
		evicting bool
		maxPer   float64
	}{
		{"16B key, 32B value", 32, 0, false, 78.9},
		{"16B key, 32B value, TTL", 32, time.Hour, false, 94.9},
		{"16B key, 200B value", 200, 0, false, 254.9},
		{"16B key, 32B value, evicting", 32, 0, true, 76.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			val := strings.Repeat("v", tc.vlen)
			base := liveHeapBytes()
			shards, slots := 8, uint64(65536)
			if tc.evicting {
				shards, slots = 64, 2048
			}
			c, err := NewCache(shards, slots)
			if err != nil {
				t.Fatal(err)
			}
			set := func(i int) {
				// A value of the item's own, as a SET off the wire has.
				if err := c.Set(fmt.Sprintf("key-%012d", i), strings.Clone(val), tc.ttl); err != nil {
					t.Fatal(err)
				}
			}
			if tc.evicting {
				capacity := uint64(shards) * slots
				rng := rand.New(rand.NewPCG(1, 2))
				for n := 0; n%256 != 0 || c.Stats().Evictions() < capacity/16; n++ {
					set(rng.IntN(4 * int(capacity)))
				}
			} else {
				for i := range items {
					set(i)
				}
			}
			for c.growing() {
				time.Sleep(time.Millisecond)
			}
			heap := liveHeapBytes()
			per := float64(heap-base) / float64(c.Len())
			t.Logf("%d items in %d slots: %.2f B/item", c.Len(), c.Cap(), per)
			if !tc.evicting && c.Len() != items {
				t.Fatalf("Len = %d, want %d", c.Len(), items)
			}
			if per > tc.maxPer {
				t.Errorf("%.2f B of live heap per item, want <= %.2f", per, tc.maxPer)
			}
			runtime.KeepAlive(c)
		})
	}
}

// growing reports whether any shard still has a resize in flight.
func (c *Cache) growing() bool {
	for _, s := range c.shards {
		if s.table.Growing() {
			return true
		}
	}
	return false
}

// TestHoldersDoNotPinReplacedItems: a stored key or value is a substring of
// its item, so whatever keeps one past the request keeps the whole item
// alive — after the item has been replaced, for nothing. The holders that
// outlive a request (the txn hot set, the hot-key sketches, the mirror log)
// are handed exactly that here: 32 keys, each as its 16 KB item has it.
// Then the keys are overwritten 10 000 times. Had a holder kept what it was
// given, the 32 replaced items — half a megabyte — would still be live;
// the bound is a quarter of that. (The lease table keeps a copy too — its
// own package's TestAcquireKeepsACopy — but every write invalidates the
// key's lease, so through a Cache it can never be seen holding a replaced
// item.)
func TestHoldersDoNotPinReplacedItems(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector is not the program's")
	}
	c, err := NewCache(1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	peer := mirrorTo(t, c, 4)

	const keys, itemSize = 32, 16 << 10
	key := func(i int) string { return fmt.Sprintf("overwritten-key-%02d", i%keys) }
	value := func(i int) string { return strings.Repeat(string(rune('a'+i%26)), itemSize) }
	for i := range keys {
		if err := c.Set(key(i), value(i), 0); err != nil {
			t.Fatal(err)
		}
		it, ok := c.shards[0].table.Get(key(i))
		if !ok || len(it.String()) < itemSize {
			t.Fatalf("stored item: %d bytes, present %v", len(it.String()), ok)
		}
		if !c.txn.Promote(it.key()) {
			t.Fatalf("Promote refused %s", key(i))
		}
		c.stats.touchHot(uint64(i), []byte(it.key()))
	}

	base := liveHeapBytes()
	for i := range 10_000 {
		if err := c.Set(key(i), value(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// The mirror log (4 entries, nobody draining) holds the last four
	// writes, whose keys have not been written since: each entry is the
	// table's item, not a second copy of it.
	held := peer.log.Drain(nil, 8)
	if len(held) != 4 {
		t.Fatalf("mirror log held %d entries, want its capacity of 4", len(held))
	}
	for _, ent := range held {
		cur, _ := c.shards[0].table.Get(ent.Key)
		if len(ent.Val) != itemSize || ent.Val != cur.val() {
			t.Fatalf("mirror entry for %q: a %d-byte value that is not the stored one", ent.Key, len(ent.Val))
		}
		if unsafe.StringData(ent.Val) != unsafe.StringData(cur.val()) {
			t.Fatalf("the mirror log entry for %q is a second copy of the table's item", ent.Key)
		}
	}
	held = nil
	grown := int64(liveHeapBytes()) - int64(base)
	t.Logf("live heap grew by %d bytes over 10 000 overwrites", grown)
	if grown > keys*itemSize/4 {
		t.Errorf("live heap grew by %d bytes over 10 000 overwrites of %d keys: replaced %d-byte items are still held", grown, keys, itemSize)
	}
	runtime.KeepAlive(c)
}

// mirrorTo turns on replication for c toward one peer that nobody drains,
// with a mirror log of capacity entries: every key has the peer as its
// other candidate, so every write is enqueued there.
func mirrorTo(t *testing.T, c *Cache, capacity int) *replPeer {
	t.Helper()
	ring, err := cluster.New([]string{"self:1", "peer:2"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	peer := &replPeer{addr: "peer:2", log: replica.NewLog(capacity), wake: make(chan struct{}, 1)}
	c.repl = &replState{ring: ring, self: "self:1", selfIdx: 0, peers: []*replPeer{nil, peer}}
	return peer
}

// TestMirrorLogHoldsNoSecondCopy: a replicated write costs the one
// allocation of an unreplicated one, its item, and the mirror log holds
// nothing beyond the table's items while their keys are unchanged: 32
// values of 16 KB written once each, all 32 entries still in the log, leave
// about 32 × 16 KB of live heap, where a copy per entry would leave twice
// that.
func TestMirrorLogHoldsNoSecondCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector is not the program's")
	}
	c, err := NewCache(1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	peer := mirrorTo(t, c, 64)
	if allocs := testing.AllocsPerRun(500, func() {
		if err := c.Set("hot", "value", 0); err != nil {
			panic(err)
		}
	}); allocs > 1 {
		t.Errorf("a replicated Cache.Set: %.1f allocs/op, want <= 1 (the stored item)", allocs)
	}
	peer.log.Drain(nil, 64)

	const keys, itemSize = 32, 16 << 10
	base := liveHeapBytes()
	for i := range keys {
		if err := c.Set(fmt.Sprintf("mirrored-key-%02d", i), strings.Repeat(string(rune('a'+i%26)), itemSize), 0); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(liveHeapBytes()) - int64(base)
	t.Logf("live heap grew by %d bytes for %d items of %d bytes, every one in the mirror log", grown, keys, itemSize)
	if peer.log.Len() != keys || grown > keys*itemSize*3/2 {
		t.Errorf("%d log entries and %d bytes of live heap for %d items of %d bytes: the log holds copies", peer.log.Len(), grown, keys, itemSize)
	}
	runtime.KeepAlive(c)
}

// TestServerObservabilityFixtures pins what a server's per-connection
// observability state costs: the flight recorder, the sampled-latency
// histogram and the hot-key sketches, all indexed by the connection's
// shard. Each shard of them is allocated by its first record, so a server
// at wire-set-evict's shape (64 x 2 048) that no connection has reached
// holds the shard tables only, and each of the first connections to serve
// a GET adds one flight ring (14 KiB), one histogram shard and a sketch
// entry. By sixteen connections every flight shard exists, and the total
// is still under what the same state cost allocated up front: 286 800 B,
// measured (16 flight rings, 64 histogram shards, 8 sketch maps sized
// for 48 keys).
func TestServerObservabilityFixtures(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the layout's")
	}
	const (
		eager   = 286_800
		perConn = 16 << 10
	)
	held := make(map[int]int64)
	for _, conns := range []int{0, 1, 2, 3, 4, 16} {
		s := startServer(t, Config{Shards: 64, SlotsPerShard: 2048, SweepInterval: -1})
		for range conns {
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			var reply [len("MISS\n")]byte
			if _, err := io.WriteString(nc, "GET k\n"); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(nc, reply[:]); err != nil || string(reply[:]) != "MISS\n" {
				t.Fatalf("GET k -> %q, %v", reply, err)
			}
			nc.Close()
		}
		for s.cache.stats.connsActive.Load() != 0 {
			time.Sleep(time.Millisecond)
		}
		held[conns] = obsStateBytes(s)
		t.Logf("%2d connections: %6d B of flight, latency and sketch state", conns, held[conns])
	}
	if held[0] > perConn {
		t.Errorf("no connection: %d B, want <= %d", held[0], perConn)
	}
	for _, n := range []int{1, 2, 3, 4} {
		if d := held[n] - held[n-1]; d > perConn {
			t.Errorf("connection %d added %d B, want <= %d", n, d, perConn)
		}
	}
	if held[16] > eager {
		t.Errorf("16 connections: %d B, want <= %d, the up-front allocation", held[16], eager)
	}
}

// obsStateBytes is the live heap s's flight recorder, sampled-latency
// histogram and hot-key sketches hold: the heap with them less the heap
// without. It drops them, so it is the last thing a test does with s
// before closing it.
func obsStateBytes(s *Server) int64 {
	with := liveHeapBytes()
	s.flight = nil
	s.cache.stats.lat = nil
	s.cache.stats.hot = [hotSketches]*obs.TopK{}
	return int64(with) - int64(liveHeapBytes())
}
