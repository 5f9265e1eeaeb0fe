package client

// Internal-package cluster test for the hot-key cache: membership is
// injected directly so the cache's serve/invalidate behavior can be pinned
// deterministically; the HOTKEYS poller that sets it in production is
// checked at the end, against the same nodes.

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"cuckoohash/internal/obs"
	"cuckoohash/server"
)

func startHotNode(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Addr:          "127.0.0.1:0",
		Shards:        2,
		SlotsPerShard: 1 << 10,
		SweepInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

// TestClusterHotCacheServesAndInvalidates checks the cache end to end:
// a read of a hot key populates the local copy, which then survives
// both servers dying; a write through the client kills it immediately.
func TestClusterHotCacheServesAndInvalidates(t *testing.T) {
	a, b := startHotNode(t), startHotNode(t)
	addrs := []string{a.Addr().String(), b.Addr().String()}
	cl, err := NewCluster(addrs, ClusterOptions{
		Pool:        Options{Size: 2},
		Seed:        3,
		HotCache:    true,
		HotCacheTTL: time.Minute, // long enough to never lapse mid-test
		HotRefresh:  time.Hour,   // the poller must not overwrite the injected set
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	const key = "blazing"
	// Inject hot membership (in production the HOTKEYS poller does this).
	cl.hot.setHotSet([]HotKey{{Key: key, Count: 99}})

	// Every write, traced or not, drops the local copy, and the next read
	// comes from the servers and fills it again.
	writes := []struct {
		val string
		set func(val string) error
	}{
		{"v0", func(val string) error { return cl.Set(key, val, 0) }},
		{"v1", func(val string) error { return cl.SetTraced(key, val, 0, NewTraceID()) }},
	}
	for _, w := range writes {
		if err := w.set(w.val); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := cl.Get(key); err != nil || !ok || v != w.val {
			t.Fatalf("fill read after writing %s = %q/%v/%v", w.val, v, ok, err)
		}
	}
	// The poller's source: every node's HOTKEYS, one key's counts summed
	// over the nodes it is hot on. "warm" is read on both, more often than
	// any other key.
	want := uint64(0)
	for _, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Set("warm", "w", 0); err != nil {
			t.Fatal(err)
		}
		for range 20 {
			c.Get("warm")
		}
		hk, err := c.HotKeys(1)
		if err != nil || len(hk) != 1 || hk[0].Key != "warm" {
			t.Fatalf("%s HOTKEYS 1 = %v/%v", addr, hk, err)
		}
		want += hk[0].Count
		c.Close()
	}
	if hk, err := cl.HotKeys(1); err != nil || len(hk) != 1 || hk[0] != (HotKey{Key: "warm", Count: want}) {
		t.Fatalf("cluster HotKeys(1) = %v/%v, want warm with %d", hk, err, want)
	}
	// A cluster that polls takes "warm" into its hot set by itself.
	polled, err := NewCluster(addrs, ClusterOptions{Seed: 3, HotCache: true, HotRefresh: time.Millisecond, HotKeyCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !polled.hot.isHot("warm"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the poller never took warm into the hot set")
		}
	}
	polled.Close()

	// With both servers gone, the hot cache alone serves the key, to a
	// traced read as well.
	a.Close()
	b.Close()
	if _, err := cl.HotKeys(1); err == nil {
		t.Fatal("HotKeys with every node down returned no error")
	}
	if v, ok, err := cl.Get(key); err != nil || !ok || v != "v1" {
		t.Fatalf("cached read = %q/%v/%v, want v1 from the local copy", v, ok, err)
	}
	if v, ok, err := cl.GetTraced(key, NewTraceID()); err != nil || !ok || v != "v1" {
		t.Fatalf("cached traced read = %q/%v/%v, want v1 from the local copy", v, ok, err)
	}
	if cl.hot.hits.Load() == 0 {
		t.Fatal("hot cache served without counting a hit")
	}

	// A write through this client invalidates the copy first, even though
	// the write itself fails (the servers are down): serving the old value
	// after the owner tried to change it would break the contract.
	if err := cl.Set(key, "v2", 0); err == nil {
		t.Fatal("Set succeeded against dead servers")
	}
	if v, ok, _ := cl.Get(key); ok {
		t.Fatalf("read after invalidation served %q; want failure", v)
	}
	if cl.hot.invalidations.Load() == 0 {
		t.Fatal("invalidation not counted")
	}
	reg := obs.NewRegistry()
	reg.Register(cl)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"hits", "misses", "invalidations"} {
		if !strings.Contains(text.String(), "cuckood_client_hot_cache_"+series+"_total ") {
			t.Errorf("Collect exports no hot-cache %s series", series)
		}
	}
}

// TestClusterSpreadsHotReads checks read spreading: with replication on,
// both candidates hold a hot key's copy, so reads that miss the local copy
// alternate between the two nodes instead of all landing on the primary.
func TestClusterSpreadsHotReads(t *testing.T) {
	const seed, key, reads = 3, "blazing", 64
	a, b := startHotNode(t), startHotNode(t)
	addrs := []string{a.Addr().String(), b.Addr().String()}
	for _, s := range []*server.Server{a, b} {
		if err := s.EnableReplication(addrs, seed, ""); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := NewCluster(addrs, ClusterOptions{
		Pool:        Options{Size: 2},
		Seed:        seed,
		HotCache:    true,
		HotCacheTTL: time.Minute,
		HotRefresh:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cl.hot.setHotSet([]HotKey{{Key: key, Count: 99}})
	if err := cl.Set(key, "v", 0); err != nil {
		t.Fatal(err)
	}

	// hits reads a node's STATS hits; until the mirror lands it also waits
	// for the node to hold the key.
	hits := func(addr string) uint64 {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if _, _, found, err := c.GetV(key); err == nil && found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never held %s", addr, key)
			}
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.ParseUint(st["hits"], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := []uint64{hits(addrs[0]), hits(addrs[1])}
	for range reads {
		cl.hot.invalidate(key)
		if v, ok, err := cl.Get(key); err != nil || !ok || v != "v" {
			t.Fatalf("hot read = %q/%v/%v", v, ok, err)
		}
	}
	for i, addr := range addrs {
		// hits itself reads the key once more.
		if got := hits(addr) - before[i] - 1; got < reads/4 {
			t.Errorf("node %s served %d of %d hot reads, want >= %d", addr, got, reads, reads/4)
		}
	}
}
