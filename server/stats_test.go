package server

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"cuckoohash/internal/txn"
)

// TestOpCountersExact: a shard's nine operation counters share one padded
// struct, and every verb bumps its own field of its own shard's struct. Two
// goroutines per shard run a known script — SET, GET hit, GET miss, INCR,
// CAS, DEL hit, DEL miss, and one key left to expire and then read — and
// every STATS total must come out exact, the hit ratio with them.
func TestOpCountersExact(t *testing.T) {
	const shards, rounds = 4, 300
	c, err := NewCache(shards, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	workers := 2 * len(c.shards)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(format string, args ...any) { t.Errorf("worker %d: "+format, append([]any{w}, args...)...) }
			for i := range rounds {
				k := fmt.Sprintf("w%d-key-%d", w, i)
				if err := c.Set(k, "v1", 0); err != nil {
					fail("SET %s: %v", k, err)
					return
				}
				if v, ok := c.Get(k); !ok || v != "v1" {
					fail("GET %s = %q, %v", k, v, ok)
				}
				if _, ok := c.Get(k + "-absent"); ok {
					fail("GET %s-absent hit", k)
				}
				if err := c.Incr(fmt.Sprintf("w%d-counter", w), 1, uint64(w), nil); err != nil {
					fail("INCR: %v", err)
				}
				if res, err := c.CAS(k, "v1", "v2", nil); err != nil || res != txn.CASStored {
					fail("CAS %s = %v, %v", k, res, err)
				}
				if !c.Delete(k, nil) || c.Delete(k, nil) {
					fail("DEL %s twice did not answer hit, then miss", k)
				}
			}
			k := fmt.Sprintf("w%d-expiring", w)
			if err := c.Set(k, "v", time.Millisecond); err != nil {
				fail("SETEX %s: %v", k, err)
			}
			time.Sleep(5 * time.Millisecond)
			if _, ok := c.Get(k); ok {
				fail("GET %s hit after its TTL", k)
			}
		}()
	}
	wg.Wait()

	n := uint64(workers * rounds)
	got := map[string]string{}
	for _, s := range c.Snapshot(c.Stats()) {
		got[s.Name] = s.Value
	}
	for name, want := range map[string]uint64{
		"gets":      2*n + uint64(workers),
		"hits":      n,
		"misses":    n + uint64(workers),
		"sets":      n + uint64(workers),
		"dels":      2 * n,
		"incrs":     n,
		"cas_ops":   n,
		"expired":   uint64(workers),
		"evictions": 0,
	} {
		if got[name] != strconv.FormatUint(want, 10) {
			t.Errorf("STATS %s = %s, want %d", name, got[name], want)
		}
	}
	wantRatio := strconv.FormatFloat(float64(n)/float64(2*n+uint64(workers)), 'f', 4, 64)
	if got["hit_ratio"] != wantRatio {
		t.Errorf("STATS hit_ratio = %s, want %s", got["hit_ratio"], wantRatio)
	}
	if h, m := c.Stats().Hits(), c.Stats().Misses(); h != n || m != n+uint64(workers) {
		t.Errorf("Hits, Misses = %d, %d; want %d, %d", h, m, n, n+uint64(workers))
	}
}
