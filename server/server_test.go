package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// startServer launches a daemon on a loopback port and returns it; the
// test cleans it up.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-serveErr; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return s
}

type rawClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, s *Server) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *rawClient) send(lines string) {
	c.t.Helper()
	if _, err := io.WriteString(c.conn, lines); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) readLine() string {
	c.t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

func (c *rawClient) roundTrip(req string) string {
	c.t.Helper()
	c.send(req + "\n")
	return c.readLine()
}

func TestProtocolBasics(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	cases := []struct{ req, want string }{
		{"GET missing", "MISS"},
		{"SET k1 hello world", "OK"}, // values may contain spaces
		{"GET k1", "VALUE hello world"},
		{"set k1 lower-case-verb", "OK"},
		{"GET k1", "VALUE lower-case-verb"},
		{"TTL k1", "TTL -1"},
		{"DEL k1", "OK"},
		{"DEL k1", "MISS"},
		{"TTL k1", "MISS"},
		{"SET toolong" + strings.Repeat("x", 300) + " v", "ERR key exceeds 250 bytes"},
		{"SET justkey", "ERR wrong number of arguments"},
		{"SETEX k2 notanumber v", "ERR ttl must be a positive integer (milliseconds)"},
		{"BOGUS x", "ERR unknown command"},
		{"", "ERR empty command"},
	}
	for _, tc := range cases {
		if got := c.roundTrip(tc.req); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.req, got, tc.want)
		}
	}
}

func TestPipelining(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	// One write carrying a whole batch; responses must come back in
	// order, and the server should answer them all.
	var b strings.Builder
	const n = 100
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "SET key%d val%d\n", i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "GET key%d\n", i)
	}
	c.send(b.String())
	for i := 0; i < n; i++ {
		if got := c.readLine(); got != "OK" {
			t.Fatalf("SET %d -> %q", i, got)
		}
	}
	for i := 0; i < n; i++ {
		if got, want := c.readLine(), fmt.Sprintf("VALUE val%d", i); got != want {
			t.Fatalf("GET %d -> %q, want %q", i, got, want)
		}
	}
}

func TestCRLFAndQuit(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)
	c.send("SET a 1\r\nGET a\r\nQUIT\r\n")
	if got := c.readLine(); got != "OK" {
		t.Fatalf("SET -> %q", got)
	}
	if got := c.readLine(); got != "VALUE 1" {
		t.Fatalf("GET -> %q", got)
	}
	if _, err := c.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after QUIT want EOF, got %v", err)
	}
}

func TestTTLLazyExpiry(t *testing.T) {
	// Sweeper disabled: expiry must still happen lazily on access.
	s := startServer(t, Config{SweepInterval: -1})
	c := dialRaw(t, s)

	if got := c.roundTrip("SETEX k 40 v"); got != "OK" {
		t.Fatalf("SETEX -> %q", got)
	}
	if got := c.roundTrip("GET k"); got != "VALUE v" {
		t.Fatalf("GET before expiry -> %q", got)
	}
	ttl := c.roundTrip("TTL k")
	if !strings.HasPrefix(ttl, "TTL ") || ttl == "TTL -1" {
		t.Fatalf("TTL -> %q, want positive milliseconds", ttl)
	}
	time.Sleep(60 * time.Millisecond)
	if got := c.roundTrip("GET k"); got != "MISS" {
		t.Fatalf("GET after expiry -> %q", got)
	}
	if got := s.Cache().Stats().Expired(); got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	// DEL of an expired entry reports MISS, not OK.
	if got := c.roundTrip("SETEX k2 1 v"); got != "OK" {
		t.Fatalf("SETEX k2 -> %q", got)
	}
	time.Sleep(20 * time.Millisecond)
	if got := c.roundTrip("DEL k2"); got != "MISS" {
		t.Fatalf("DEL expired -> %q", got)
	}
}

func TestSweeperRemovesExpired(t *testing.T) {
	s := startServer(t, Config{SweepInterval: 10 * time.Millisecond})
	c := dialRaw(t, s)
	for i := 0; i < 50; i++ {
		if got := c.roundTrip(fmt.Sprintf("SETEX s%d 30 v", i)); got != "OK" {
			t.Fatalf("SETEX -> %q", got)
		}
	}
	if got := s.Cache().Len(); got != 50 {
		t.Fatalf("Len = %d, want 50", got)
	}
	// Without any further GETs, the sweeper alone must reclaim them.
	deadline := time.Now().Add(2 * time.Second)
	for s.Cache().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper left %d entries after 2s", s.Cache().Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.Cache().Stats().Expired(); got != 50 {
		t.Fatalf("expired counter = %d, want 50", got)
	}
}

func TestEvictionOnFull(t *testing.T) {
	// One tiny shard: inserts beyond capacity must evict, not error.
	s := startServer(t, Config{Shards: 1, SlotsPerShard: 128, SweepInterval: -1})
	c := dialRaw(t, s)
	const n = 1000
	for i := 0; i < n; i++ {
		if got := c.roundTrip(fmt.Sprintf("SET e%d v%d", i, i)); got != "OK" {
			t.Fatalf("SET %d -> %q (cache should evict, not fail)", i, got)
		}
	}
	st := s.Cache().Stats()
	if st.Evictions() == 0 {
		t.Fatal("no evictions recorded after overfilling the cache")
	}
	if got, capSlots := s.Cache().Len(), s.Cache().Cap(); got > capSlots {
		t.Fatalf("Len %d exceeds capacity %d", got, capSlots)
	}
	// The most recent key must have survived: a SET evicts among the
	// neighbours of the key it is writing, never that key.
	if got := c.roundTrip(fmt.Sprintf("GET e%d", n-1)); !strings.HasPrefix(got, "VALUE") {
		t.Fatalf("most recent key evicted: %q", got)
	}
}

func TestStatsCommand(t *testing.T) {
	s := startServer(t, Config{Shards: 2})
	c := dialRaw(t, s)
	c.roundTrip("SET a 1")
	c.roundTrip("GET a")
	c.roundTrip("GET nope")

	c.send("STATS\n")
	stats := map[string]string{}
	for {
		line := c.readLine()
		if line == "END" {
			break
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 || fields[0] != "STAT" {
			t.Fatalf("malformed STATS line %q", line)
		}
		stats[fields[1]] = fields[2]
	}
	for name, want := range map[string]string{
		"entries": "1", "gets": "2", "hits": "1", "misses": "1",
		"sets": "1", "hit_ratio": "0.5000", "shards": "2",
		"conns_active": "1", "conns_total": "1",
	} {
		if got := stats[name]; got != want {
			t.Errorf("STAT %s = %q, want %q", name, got, want)
		}
	}
	for _, name := range []string{"lat_p50_ns", "lat_p99_ns", "lat_p999_ns", "shard0_entries", "shard1_entries"} {
		if _, ok := stats[name]; !ok {
			t.Errorf("STATS missing %s", name)
		}
	}
}

// TestLineTooLong pins the request-line limit from both sides: a line of
// maxLine bytes, '\n' included, is served — its value reads back whole —
// and one byte more closes the connection, which cannot resynchronize
// mid-line.
func TestLineTooLong(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)
	val := strings.Repeat("x", maxLine-1-len("SET big "))
	if got := c.roundTrip("SET big " + val); got != "OK" {
		t.Fatalf("SET of a %d-byte line -> %.40q", maxLine, got)
	}
	if got := c.roundTrip("GET big"); got != "VALUE "+val {
		t.Fatalf("GET big -> %d bytes, want %d", len(got), len("VALUE "+val))
	}
	c.send("SET big " + val + "x\n")
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("oversized request not rejected")
	}
}

// TestIdleConnMemory pins what an idle connection costs the server: 300
// connections that have each served one GET hold at most 20 KB of heap
// apiece, client sockets included (132.6 KB with the fixed 64 KB buffer
// pair internal/connbuf replaced).
func TestIdleConnMemory(t *testing.T) {
	s := startServer(t, Config{})
	const n = 300
	conns := make([]net.Conn, 0, n)
	t.Cleanup(func() {
		for _, nc := range conns {
			nc.Close()
		}
	})
	before := liveHeapBytes()
	for range n {
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, nc)
		var reply [len("MISS\n")]byte
		if _, err := io.WriteString(nc, "GET k\n"); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, reply[:]); err != nil || string(reply[:]) != "MISS\n" {
			t.Fatalf("GET k -> %q, %v", reply, err)
		}
	}
	perConn := (float64(liveHeapBytes()) - float64(before)) / n
	t.Logf("%.1f KB of heap per idle connection", perConn/1e3)
	if perConn > 20e3 {
		t.Errorf("an idle connection holds %.1f KB of heap, want <= 20 KB", perConn/1e3)
	}
}

func TestShutdownDrainsIdleConns(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)
	if got := c.roundTrip("SET a 1"); got != "OK" {
		t.Fatalf("SET -> %q", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The idle connection must see clean EOF (FIN), not a reset.
	if _, err := c.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after drain want EOF, got %v", err)
	}
	// New connections must be refused.
	if nc, err := net.Dial("tcp", s.Addr().String()); err == nil {
		nc.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestShutdownFlushesInFlightBatch(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	// Send a pipelined batch and immediately shut down: every request in
	// the batch must still get its response before the FIN.
	var b strings.Builder
	const n = 50
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "SET d%d v\nGET d%d\n", i, i)
	}
	c.send(b.String())
	// Wait until the handler has started the batch: its first buffer fill
	// slurps the whole pipelined burst, so from the first processed SET
	// onward the batch completes from the read buffer without touching
	// the socket again — exactly the window the drain must respect.
	for deadline := time.Now().Add(2 * time.Second); s.Cache().Len() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("server never started processing the batch")
		}
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := c.readLine(); got != "OK" {
			t.Fatalf("batch SET %d -> %q", i, got)
		}
		if got := c.readLine(); got != "VALUE v" {
			t.Fatalf("batch GET %d -> %q", i, got)
		}
	}
	if _, err := c.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after drained batch want EOF, got %v", err)
	}
}
