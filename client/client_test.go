package client_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cuckoohash/client"
	"cuckoohash/server"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", SweepInterval: -1})
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

func TestConnRoundTrips(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("k", "v with spaces", 0); err != nil {
		t.Fatalf("Set: %v", err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || v != "v with spaces" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := c.Get("absent"); ok {
		t.Fatal("Get absent reported found")
	}
	d, ok, err := c.TTL("k")
	if err != nil || !ok || d != -1 {
		t.Fatalf("TTL persistent = %v, %v, %v", d, ok, err)
	}
	if err := c.Set("tk", "v", 50*time.Millisecond); err != nil {
		t.Fatalf("Set ttl: %v", err)
	}
	d, ok, err = c.TTL("tk")
	if err != nil || !ok || d <= 0 || d > 50*time.Millisecond {
		t.Fatalf("TTL = %v, %v, %v", d, ok, err)
	}
	found, err := c.Del("k")
	if err != nil || !found {
		t.Fatalf("Del = %v, %v", found, err)
	}
	found, err = c.Del("k")
	if err != nil || found {
		t.Fatalf("re-Del = %v, %v", found, err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats["sets"] != "2" || stats["hits"] != "1" || stats["misses"] != "1" {
		t.Fatalf("stats = %v", stats)
	}
}

func TestConnPipelined(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	for i := 0; i < n; i++ {
		if err := c.QueueSet(key(i), "v", 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.Pending() != n {
		t.Fatalf("Pending = %d, want %d", c.Pending(), n)
	}
	reps, err := c.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(reps) != n {
		t.Fatalf("got %d replies, want %d", len(reps), n)
	}
	for i, rep := range reps {
		if rep.Err != nil || !rep.Found {
			t.Fatalf("SET reply %d = %+v", i, rep)
		}
	}
	for i := 0; i < n; i++ {
		c.QueueGet(key(i))
	}
	c.QueueGet("missing")
	reps, err = c.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < n; i++ {
		if !reps[i].Found || reps[i].Value != "v" {
			t.Fatalf("GET reply %d = %+v", i, reps[i])
		}
	}
	if reps[n].Found {
		t.Fatal("GET missing reported found")
	}
}

// TestLargeValueReadsBackWhole pins that replies have no length limit: a
// 1 MiB value, stored in process because a SET line that long is past the
// request-line limit, comes back whole through a Conn, alone and in a
// pipelined batch, and the Conn stays usable for small replies after.
func TestLargeValueReadsBackWhole(t *testing.T) {
	s := startServer(t)
	big := strings.Repeat("0123456789abcdef", 1<<16)
	if err := s.Cache().Set("big", big, 0); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, ok, err := c.Get("big"); err != nil || !ok || v != big {
		t.Fatalf("Get big = %d bytes, %v, %v; want %d bytes", len(v), ok, err, len(big))
	}
	for range 3 {
		c.QueueGet("big")
	}
	c.QueueGet("absent")
	reps, err := c.Flush()
	if err != nil || len(reps) != 4 {
		t.Fatalf("Flush = %d replies, %v", len(reps), err)
	}
	for i, rep := range reps[:3] {
		if !rep.Found || rep.Value != big {
			t.Fatalf("pipelined GET %d = %d bytes, found %v", i, len(rep.Value), rep.Found)
		}
	}
	if reps[3].Found {
		t.Fatal("GET absent reported found")
	}
	if err := c.Set("small", "v", 0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("small"); err != nil || !ok || v != "v" {
		t.Fatalf("Get small = %q, %v, %v", v, ok, err)
	}
}

func TestInvalidKeysAndValues(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, bad := range []string{"", "has space", "has\nnewline", "has\rreturn", strings.Repeat("x", 251)} {
		if err := c.QueueGet(bad); err == nil {
			t.Errorf("QueueGet(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"line1\nline2", "line1\r\nline2", "a lone\rreturn"} {
		if err := c.QueueSet("k", bad, 0); err == nil {
			t.Errorf("QueueSet with value %q accepted", bad)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("invalid requests were queued: Pending = %d", c.Pending())
	}
}

func TestPoolConcurrent(t *testing.T) {
	s := startServer(t)
	pool := client.NewPool(s.Addr().String(), 4)
	defer pool.Close()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(w*1000 + i)
				if err := pool.Set(k, "v", 0); err != nil {
					t.Errorf("Set %s: %v", k, err)
					return
				}
				if _, ok, err := pool.Get1(k); err != nil || !ok {
					t.Errorf("Get1 %s = %v, %v", k, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Cache().Len(); got != 16*50 {
		t.Fatalf("cache holds %d entries, want %d", got, 16*50)
	}
}

func key(i int) string {
	return "key-" + strings.Repeat("0", 2) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
