package faultinject

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// pipePair returns the two ends of a loopback TCP connection, so reset
// injection exercises the real SO_LINGER path.
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- nc
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-done
	if s == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func TestNilPlanIsTransparent(t *testing.T) {
	var p *Plan
	c, s := pipePair(t)
	if got := p.WrapConn(c); got != c {
		t.Fatal("nil plan wrapped the conn")
	}
	if p.FailOp(1, io.EOF) != nil {
		t.Fatal("nil plan returned a non-nil hook")
	}
	p.Arm()
	p.Disarm()
	if p.Rolls() != 0 || p.Fired() != 0 || p.String() != "none" {
		t.Fatal("nil plan accounting not zero")
	}
	_ = s
}

func TestDeterministicSchedule(t *testing.T) {
	// Two plans with the same seed must fire the same faults at the same
	// operation indexes.
	schedule := func(seed uint64) []bool {
		p := New(seed)
		p.ResetProb = 0 // only count decisions, not kill the conn
		p.PartialProb = 0.3
		c, s := pipePair(t)
		defer c.Close()
		defer s.Close()
		fc := p.WrapConn(c).(*faultConn)
		var fired []bool
		for i := 0; i < 64; i++ {
			v, any := fc.decide()
			fired = append(fired, any && v.partial)
		}
		return fired
	}
	a, b := schedule(42), schedule(42)
	diff := schedule(43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] != diff[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	var any bool
	for _, f := range a {
		any = any || f
	}
	if !any {
		t.Fatal("30% partial plan fired nothing in 64 ops")
	}
}

func TestResetInjectsTransportError(t *testing.T) {
	p := New(7)
	p.ResetProb = 1
	c, s := pipePair(t)
	fc := p.WrapConn(c)
	if _, err := fc.Write([]byte("hello\n")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Write error = %v, want ErrInjected", err)
	}
	// The peer observes the connection failing (RST or EOF), not a hang.
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := s.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after injected reset")
	}
	if p.Fired() == 0 {
		t.Fatal("Fired did not count the reset")
	}
}

func TestPartialWriteFails(t *testing.T) {
	p := New(1)
	p.PartialProb = 1
	c, s := pipePair(t)
	fc := p.WrapConn(c)
	n, err := fc.Write([]byte("0123456789"))
	if err == nil {
		t.Fatal("partial write reported success")
	}
	if n == 0 || n >= 10 {
		t.Fatalf("partial write wrote %d bytes, want a strict prefix", n)
	}
	// The peer received exactly the prefix before the connection died.
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	got, _ := io.ReadFull(s, buf[:n])
	if got != n || string(buf[:n]) != "0123456789"[:n] {
		t.Fatalf("peer got %q, want prefix %q", buf[:got], "0123456789"[:n])
	}
}

func TestStallDelaysOperation(t *testing.T) {
	p := New(3)
	p.Stall = 50 * time.Millisecond
	p.StallProb = 1
	c, s := pipePair(t)
	go io.Copy(io.Discard, s)
	fc := p.WrapConn(c)
	start := time.Now()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < p.Stall {
		t.Fatalf("write returned after %v, want >= %v", d, p.Stall)
	}
}

func TestDisarmStopsFaults(t *testing.T) {
	p := New(9)
	p.ResetProb = 1
	p.Disarm()
	c, s := pipePair(t)
	go io.Copy(io.Discard, s)
	fc := p.WrapConn(c)
	for i := 0; i < 10; i++ {
		if _, err := fc.Write([]byte("ok\n")); err != nil {
			t.Fatalf("disarmed plan injected a fault: %v", err)
		}
	}
	if p.Fired() != 0 {
		t.Fatalf("Fired = %d while disarmed", p.Fired())
	}
}

func TestListenerAcceptFaults(t *testing.T) {
	p := New(5)
	p.AcceptProb = 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fl := p.WrapListener(ln)
	_, err = fl.Accept()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Temporary() || ne.Timeout() { //nolint:staticcheck // Temporary is the accept-loop contract
		t.Fatalf("Accept error = %v, want temporary net.Error", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Accept error %v not in ErrInjected chain", err)
	}
	if !strings.Contains(err.Error(), "injected transient accept error") {
		t.Fatalf("Accept error reads %q", err)
	}
	// Disarmed, the listener accepts and the conn passes through wrapped.
	p.Disarm()
	go net.Dial("tcp", ln.Addr().String())
	nc, err := fl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nc.(*faultConn); !ok {
		t.Fatal("accepted conn not wrapped")
	}
	nc.Close()
}

func TestFailOpHook(t *testing.T) {
	p := New(11)
	hook := p.FailOp(1, errors.New("cache full"))
	err := hook("SET", "k")
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "cache full") {
		t.Fatalf("hook err = %v", err)
	}
	p.Disarm()
	if err := hook("SET", "k"); err != nil {
		t.Fatalf("disarmed hook err = %v", err)
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("latency=2ms:0.05, partial:0.1,stall=100ms:0.01,reset:0.02,accept:0.05", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Latency != 2*time.Millisecond || p.LatencyProb != 0.05 ||
		p.PartialProb != 0.1 || p.Stall != 100*time.Millisecond ||
		p.StallProb != 0.01 || p.ResetProb != 0.02 || p.AcceptProb != 0.05 {
		t.Fatalf("parsed plan = %+v", p)
	}
	if got := p.String(); !strings.Contains(got, "latency=2ms:0.05") {
		t.Fatalf("String = %q", got)
	}
	if p, err := Parse("", 1); p != nil || err != nil {
		t.Fatalf("empty spec = %v, %v", p, err)
	}
	for _, bad := range []string{"latency:0.5", "bogus:0.1", "reset:1.5", "reset", "stall:0.1"} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
