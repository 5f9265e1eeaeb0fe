package server_test

// The go test -bench rungs for the server package (make bench-rung
// PKG=server RUNG='Wire|Exec|KeyedOps'): BenchmarkWire is one client.Conn
// round trip against an in-process server on loopback, per value size,
// plus a depth-16 pipeline; BenchmarkExec is Cache.Exec in process, and
// BenchmarkKeyedOps the single-key writes. Exported API only, so the file
// compiles against any parent it is copied over (scripts/bench-rung.sh).

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"cuckoohash/client"
	"cuckoohash/internal/txn"
	"cuckoohash/server"
)

// BenchmarkExec is MULTI/EXEC without the wire: each op is one two-key
// INCR transfer (x -= 1, y += 1) through Cache.Exec, from b.RunParallel's
// goroutines. spread draws both keys from 10 000 counters per transfer,
// each goroutine its own stream, so transactions rarely share a stripe;
// onepair has every goroutine move between the same two keys, so every
// transaction waits on the others' stripes.
func BenchmarkExec(b *testing.B) {
	const universe = 10000
	keys := make([]string, universe)
	for i := range keys {
		keys[i] = "ctr" + strconv.Itoa(i)
	}
	for _, cell := range []struct {
		name string
		span int // how many keys the transfers draw from
	}{{"spread", universe}, {"onepair", 2}} {
		b.Run(cell.name, func(b *testing.B) {
			c, err := server.NewCache(4, 1<<13)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range keys[:cell.span] {
				if err := c.Set(k, "1000000", 0); err != nil {
					b.Fatal(err)
				}
			}
			var seeds atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				x := seeds.Add(1) * 0x9e3779b97f4a7c15 // per-goroutine xorshift state
				ops := []txn.Op{{Kind: txn.OpIncr, Delta: -1}, {Kind: txn.OpIncr, Delta: 1}}
				for pb.Next() {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					i := int(x % uint64(cell.span))
					j := (i + 1 + int(x>>32)%(cell.span-1)) % cell.span
					ops[0].Key, ops[1].Key = keys[i], keys[j]
					for _, r := range c.Exec(ops, nil) {
						if r.Status != txn.StatusOK {
							b.Errorf("transfer %s -> %s: %+v", keys[i], keys[j], r)
							return
						}
					}
				}
			})
		})
	}
}

// BenchmarkKeyedOps is one keyed write per op through the Cache, in
// process, from b.RunParallel's goroutines, each drawing keys from its own
// stream over 10 000 resident keys: incr adds 1 to a counter no one has
// made hot, cas swaps a value for itself (so every one is stored), del+set
// deletes a key and writes it back, and set, the control, overwrites.
// set-samekey overwrites one key with a 1 KB or a 60 KB value from every
// goroutine, so the writers meet on one table pin and wait out whatever a
// SET does while it holds it.
func BenchmarkKeyedOps(b *testing.B) {
	const universe = 10000
	keys := make([]string, universe)
	for i := range keys {
		keys[i] = "key" + strconv.Itoa(i)
	}
	kb1, kb60 := strings.Repeat("v", 1<<10), strings.Repeat("v", 60<<10)
	for _, cell := range []struct {
		name string
		span uint64 // how many keys the ops draw from
		op   func(c *server.Cache, key string) error
	}{
		{"incr", universe, func(c *server.Cache, key string) error { return c.Incr(key, 1, 0, nil) }},
		{"cas", universe, func(c *server.Cache, key string) error {
			if res, err := c.CAS(key, "1", "1", nil); err != nil || res != txn.CASStored {
				return fmt.Errorf("CAS = %v, %v", res, err)
			}
			return nil
		}},
		{"del+set", universe, func(c *server.Cache, key string) error {
			c.Delete(key, nil)
			return c.Set(key, "1", 0)
		}},
		{"set", universe, func(c *server.Cache, key string) error { return c.Set(key, "1", 0) }},
		{"set-samekey/1KB", 1, func(c *server.Cache, key string) error { return c.Set(key, kb1, 0) }},
		{"set-samekey/60KB", 1, func(c *server.Cache, key string) error { return c.Set(key, kb60, 0) }},
	} {
		b.Run(cell.name, func(b *testing.B) {
			c, err := server.NewCache(4, 1<<13)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range keys {
				if err := c.Set(k, "1", 0); err != nil {
					b.Fatal(err)
				}
			}
			var seeds atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				x := seeds.Add(1) * 0x9e3779b97f4a7c15 // per-goroutine xorshift state
				for pb.Next() {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					if err := cell.op(c, keys[x%cell.span]); err != nil {
						b.Errorf("%s %s: %v", cell.name, keys[x%cell.span], err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkWire(b *testing.B) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", SweepInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	for _, size := range []struct {
		name string
		n    int
	}{{"32B", 32}, {"8KB", 8 << 10}, {"60KB", 60 << 10}} {
		key, val := "k"+size.name, strings.Repeat("v", size.n)
		b.Run("GET/"+size.name, func(b *testing.B) {
			if err := c.Set(key, val, 0); err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if v, ok, err := c.Get(key); err != nil || !ok || len(v) != size.n {
					b.Fatalf("Get = %d bytes, %v, %v", len(v), ok, err)
				}
			}
		})
		b.Run("SET/"+size.name, func(b *testing.B) {
			for b.Loop() {
				if err := c.Set(key, val, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("pipeline16/1KB", func(b *testing.B) {
		val := strings.Repeat("v", 1<<10)
		keys := make([]string, 8)
		for i := range keys {
			keys[i] = fmt.Sprintf("p%d", i)
		}
		for b.Loop() {
			for _, k := range keys {
				c.QueueSet(k, val, 0)
				c.QueueGet(k)
			}
			reps, err := c.Flush()
			if err != nil || len(reps) != 16 {
				b.Fatalf("Flush = %d replies, %v", len(reps), err)
			}
		}
	})
}
