package client

// White-box tests for the client fault-tolerance layer: sticky broken
// connections, checkout health checks, retry/backoff/budget, and the
// circuit breaker state machine. Black-box protocol tests live in
// client_test.go (package client_test).

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cuckoohash/internal/obs"
	"cuckoohash/server"
)

func startBackend(t *testing.T) *server.Server {
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

// TestConnBrokenIsSticky is the regression test for the half-flushed
// pipeline bug: after a transport failure mid-Flush, the connection must
// refuse every further operation with the same error rather than read
// replies that belong to earlier requests.
func TestConnBrokenIsSticky(t *testing.T) {
	s := startBackend(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Queue two requests, then cut the transport under the client so the
	// flush (or its reply reads) fails partway.
	if err := c.QueueSet("a", "1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.QueueGet("a"); err != nil {
		t.Fatal(err)
	}
	c.nc.Close()
	if _, err := c.Flush(); err == nil {
		t.Fatal("Flush over a closed transport succeeded")
	}
	if !errors.Is(c.Err(), ErrBrokenConn) {
		t.Fatalf("Err() = %v, want ErrBrokenConn chain", c.Err())
	}

	// Every subsequent operation fails with the same sticky error and
	// queues nothing.
	if err := c.QueueGet("a"); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("QueueGet after break = %v", err)
	}
	if err := c.QueueSet("a", "2", 0); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("QueueSet after break = %v", err)
	}
	if _, err := c.Flush(); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("Flush after break = %v", err)
	}
	if _, err := c.Stats(); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("Stats after break = %v", err)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d on a broken conn", c.Pending())
	}
}

// TestPoolRefusesBrokenConn: Put must discard (never pool) a broken conn.
func TestPoolRefusesBrokenConn(t *testing.T) {
	s := startBackend(t)
	p := NewPool(s.Addr().String(), 2)
	defer p.Close()

	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	c.nc.Close()
	c.QueueGet("k")
	c.Flush() // breaks the conn
	p.Put(c)

	st := p.Stats()
	if st.Idle != 0 {
		t.Fatalf("broken conn was pooled: idle = %d", st.Idle)
	}
	if st.Discards != 1 {
		t.Fatalf("Discards = %d, want 1", st.Discards)
	}
}

// TestPoolHealthCheckDiscardsDeadIdleConns: a server restart kills idle
// pooled sockets; the next Get must detect and replace them instead of
// handing the caller a dead connection.
func TestPoolHealthCheckDiscardsDeadIdleConns(t *testing.T) {
	s := startBackend(t)
	p := NewPool(s.Addr().String(), 1)
	defer p.Close()

	if err := p.Set("k", "v", 0); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Idle != 1 {
		t.Fatalf("Idle = %d after one-shot, want 1", st.Idle)
	}
	s.Close() // server gone: the idle socket is now half-dead

	// Poll until the kernel has delivered the close to the idle socket's
	// receive queue, then Get must health-check it out of the pool.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := p.Get()
		if err != nil {
			// Dial of the replacement failed (server closed): acceptable —
			// the important part is the dead conn was not handed out.
			break
		}
		if c.Err() != nil {
			t.Fatalf("Get handed out a broken conn: %v", c.Err())
		}
		_, herr := c.healthCheck()
		healthy := herr == nil
		p.Put(c)
		if !healthy || p.Stats().HealthCheckDiscards > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health check never noticed the dead idle conn")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.Stats().HealthCheckDiscards; got == 0 {
		t.Fatal("HealthCheckDiscards = 0, want > 0")
	}
}

// TestBackoffDeterministicFullJitter: same seed, same schedule; delays stay
// inside the full-jitter envelope [0, min(max, base<<n)).
func TestBackoffDeterministicFullJitter(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		b := newBackoff(2*time.Millisecond, 50*time.Millisecond, seed)
		var out []time.Duration
		for n := 1; n <= 12; n++ {
			out = append(out, b.sleepFor(n))
		}
		return out
	}
	a, b2 := mk(99), mk(99)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b2[i])
		}
		ceil := 2 * time.Millisecond << i
		if ceil > 50*time.Millisecond || ceil <= 0 {
			ceil = 50 * time.Millisecond
		}
		if a[i] < 0 || a[i] >= ceil {
			t.Fatalf("attempt %d delay %v outside [0, %v)", i+1, a[i], ceil)
		}
	}
}

func TestRetryBudgetThrottles(t *testing.T) {
	b := newRetryBudget(3)
	for i := 0; i < 3; i++ {
		if !b.take() {
			t.Fatalf("take %d denied with budget remaining", i)
		}
	}
	if b.take() {
		t.Fatal("take succeeded on empty budget")
	}
	for i := 0; i < 20; i++ {
		b.success()
	}
	if !b.take() {
		t.Fatal("take denied after successes refilled the budget")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	for st, want := range map[BreakerState]string{BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open", BreakerHalfOpen + 1: "invalid"} {
		if got := st.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", int(st), got, want)
		}
	}
	b := &breaker{threshold: 3, cooldown: 30 * time.Millisecond}

	// Failures below the threshold keep it closed; a success resets the
	// streak.
	b.record(false)
	b.record(false)
	b.record(true)
	b.record(false)
	b.record(false)
	if st, _, _, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state = %v before threshold, want closed", st)
	}
	b.record(false) // third consecutive failure: trip
	if st, opens, _, _ := b.snapshot(); st != BreakerOpen || opens != 1 {
		t.Fatalf("state = %v opens = %d after threshold, want open/1", st, opens)
	}
	if b.allow() {
		t.Fatal("open breaker allowed an op inside the cooldown")
	}

	// After the cooldown: exactly one half-open probe.
	time.Sleep(35 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker denied the half-open probe after cooldown")
	}
	if st, _, _, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}
	if b.allow() {
		t.Fatal("second concurrent probe admitted")
	}

	// Failed probe: straight back to open.
	b.record(false)
	if st, opens, _, _ := b.snapshot(); st != BreakerOpen || opens != 2 {
		t.Fatalf("state = %v opens = %d after failed probe, want open/2", st, opens)
	}

	// Successful probe closes it.
	time.Sleep(35 * time.Millisecond)
	if !b.allow() {
		t.Fatal("probe denied after second cooldown")
	}
	b.record(true)
	if st, _, closes, _ := b.snapshot(); st != BreakerClosed || closes != 1 {
		t.Fatalf("state = %v closes = %d after good probe, want closed/1", st, closes)
	}

	// Disabled breaker never interferes.
	var off *breaker
	if !off.allow() {
		t.Fatal("nil breaker denied an op")
	}
	off.record(false)
	zero := &breaker{}
	for i := 0; i < 100; i++ {
		zero.record(false)
	}
	if !zero.allow() {
		t.Fatal("threshold-0 breaker tripped")
	}
}

// TestPoolBreakerOpensAndRecovers drives the breaker through a full
// outage: ops fail until it opens and fast-fails, then the server comes
// back on the same address and the half-open probe closes it.
func TestPoolBreakerOpensAndRecovers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening: dials fail fast

	p := NewPoolWith(addr, Options{
		Size:             2,
		DialTimeout:      200 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})
	defer p.Close()

	for i := 0; i < 3; i++ {
		if _, _, err := p.Get1("k"); err == nil {
			t.Fatal("Get1 against a dead address succeeded")
		}
	}
	if st := p.Stats(); st.BreakerState != BreakerOpen || st.BreakerOpens != 1 {
		t.Fatalf("breaker = %v opens = %d after 3 failures, want open/1",
			st.BreakerState, st.BreakerOpens)
	}
	if _, _, err := p.Get1("k"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("op while open = %v, want ErrCircuitOpen", err)
	}
	if p.Stats().BreakerDenied == 0 {
		t.Fatal("BreakerDenied = 0 after a fast-fail")
	}

	// Server comes back on the same address.
	s, err := server.New(server.Config{Addr: addr, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	if err := s.Cache().Set("k", "v", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, ok, err := p.Get1("k")
		if err == nil && ok && v == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := p.Stats(); st.BreakerState != BreakerClosed || st.BreakerCloses == 0 {
		t.Fatalf("breaker = %v closes = %d after recovery, want closed/>0",
			st.BreakerState, st.BreakerCloses)
	}
}

// TestPoolRetriesTransportFailure: with retries on, a one-shot op survives
// a connection that dies on first use.
func TestPoolRetriesTransportFailure(t *testing.T) {
	s := startBackend(t)
	var dials atomic.Int64
	p := NewPoolWith(s.Addr().String(), Options{
		Size:        1,
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Seed:        7,
		DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err == nil && dials.Add(1) == 1 {
				nc.Close() // first connection is dead on arrival
			}
			return nc, err
		},
	})
	defer p.Close()

	if err := s.Cache().Set("k", "v", 0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := p.Get1("k")
	if err != nil || !ok || v != "v" {
		t.Fatalf("Get1 = %q, %v, %v", v, ok, err)
	}
	if st := p.Stats(); st.Retries == 0 {
		t.Fatalf("Retries = 0, want > 0 (stats %+v)", st)
	}
}

// TestPoolNoRetryByDefault: the default pool performs exactly one attempt,
// preserving the historical exact-counter behavior of existing callers.
func TestPoolNoRetryByDefault(t *testing.T) {
	s := startBackend(t)
	var dials atomic.Int64
	p := NewPoolWith(s.Addr().String(), Options{
		Size: 1,
		DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err == nil && dials.Add(1) == 1 {
				nc.Close()
			}
			return nc, err
		},
	})
	defer p.Close()

	if _, _, err := p.Get1("k"); err == nil {
		t.Fatal("Get1 over a dead conn succeeded without retries")
	}
	if st := p.Stats(); st.Retries != 0 {
		t.Fatalf("Retries = %d with retries disabled", st.Retries)
	}
}

// TestPoolSetNotRetriedUnlessOptedIn: SET stays single-attempt unless
// RetrySets is set.
func TestPoolSetNotRetriedUnlessOptedIn(t *testing.T) {
	s := startBackend(t)
	for _, tc := range []struct {
		retrySets bool
		wantOK    bool
	}{{false, false}, {true, true}} {
		var dials atomic.Int64
		p := NewPoolWith(s.Addr().String(), Options{
			Size:        1,
			MaxRetries:  2,
			RetrySets:   tc.retrySets,
			BackoffBase: time.Millisecond,
			BackoffMax:  2 * time.Millisecond,
			Seed:        11,
			DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
				nc, err := net.DialTimeout("tcp", addr, timeout)
				if err == nil && dials.Add(1) == 1 {
					nc.Close()
				}
				return nc, err
			},
		})
		err := p.Set(fmt.Sprintf("k%v", tc.retrySets), "v", 0)
		if gotOK := err == nil; gotOK != tc.wantOK {
			t.Errorf("RetrySets=%v: Set err = %v, want success=%v",
				tc.retrySets, err, tc.wantOK)
		}
		p.Close()
	}
}

// TestRetryableClassification pins down which errors the retry loop acts on.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&ServerError{Msg: "busy"}, true},
		{&ServerError{Msg: "server full"}, false},
		{&ServerError{Msg: "line too long"}, false},
		{fmt.Errorf("%w: %w", ErrBrokenConn, errors.New("eof")), true},
		{&net.OpError{Op: "read", Err: errors.New("reset")}, true},
		{errors.New("client: invalid key"), false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	if !IsBusy(&ServerError{Msg: "busy"}) || IsBusy(&ServerError{Msg: "full"}) {
		t.Fatal("IsBusy misclassified")
	}
}

// TestPoolCollectExportsSeries: the pool's obs.Collector emits every
// fault-tolerance series so embedding applications can scrape them.
func TestPoolCollectExportsSeries(t *testing.T) {
	s := startBackend(t)
	p := NewPool(s.Addr().String(), 2)
	defer p.Close()
	if err := p.Set("k", "v", 0); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	reg.Register(p)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"cuckood_client_pool_capacity 2",
		"cuckood_client_pool_idle 1",
		"cuckood_client_dials_total 1",
		"cuckood_client_retries_total 0",
		"cuckood_client_retry_budget_denied_total 0",
		"cuckood_client_health_discards_total 0",
		"cuckood_client_timeouts_total 0",
		"cuckood_client_busy_rejections_total 0",
		"cuckood_client_breaker_state 0",
		"cuckood_client_breaker_opens_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Collect output missing %q", want)
		}
	}
}

// TestConnIOTimeout: a server that stops responding trips the Flush
// deadline instead of hanging the caller forever.
func TestConnIOTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		// Read the request, never answer.
		buf := make([]byte, 1024)
		nc.Read(buf)
		time.Sleep(5 * time.Second)
	}()

	c, err := DialTimeout(ln.Addr().String(), time.Second, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.QueueGet("k"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Flush()
	if err == nil {
		t.Fatal("Flush against a mute server succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Flush err = %v, want timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Flush took %v, deadline did not fire", d)
	}
	if !errors.Is(c.Err(), ErrBrokenConn) {
		t.Fatal("timeout did not break the conn")
	}
}

// TestShedConnReportsBusy: a connection the server sheds at accept time
// (MaxConns reached) answers whatever arrives first with "ERR busy". The
// multi-line admin verbs must classify that like Get does — a retryable
// *ServerError, counted by the pool — so a load probe of a saturated node
// reads as "busy", not as a protocol fault.
func TestShedConnReportsBusy(t *testing.T) {
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", SweepInterval: -1, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	addr := s.Addr().String()

	// The one admitted connection; a round trip proves it is registered.
	held, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if err := held.Set("k", "v", 0); err != nil {
		t.Fatal(err)
	}

	verbs := []struct {
		name string
		call func(c *Conn) error
	}{
		{"Get", func(c *Conn) error { _, _, err := c.Get("k"); return err }},
		{"Stats", func(c *Conn) error { _, err := c.Stats(); return err }},
		{"ClusterInfo", func(c *Conn) error { _, err := c.ClusterInfo(); return err }},
		{"HotKeys", func(c *Conn) error { _, err := c.HotKeys(0); return err }},
	}
	for _, v := range verbs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.call(c); !IsBusy(err) {
			t.Errorf("%s on a shed connection = %v; want IsBusy", v.name, err)
		}
		c.Close()
	}

	cl, err := NewCluster([]string{addr}, ClusterOptions{Pool: Options{Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Probe(); !IsBusy(err) {
		t.Errorf("Probe of a saturated node = %v; want IsBusy", err)
	}
	if got := cl.nodes[0].pool.Stats().BusyRejections; got != 1 {
		t.Errorf("BusyRejections = %d after one shed probe, want 1", got)
	}
}
