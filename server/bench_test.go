package server_test

// The go test -bench rung for the wire (make bench-rung PKG=server
// RUNG=Wire): one client.Conn round trip against an in-process server on
// loopback, per value size, plus a depth-16 pipeline. Exported API only,
// so the file compiles against any parent it is copied over
// (scripts/bench-rung.sh).

import (
	"fmt"
	"strings"
	"testing"

	"cuckoohash/client"
	"cuckoohash/server"
)

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
