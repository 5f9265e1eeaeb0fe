package server

// Tests for the overload-control and crash-recovery machinery: accept-loop
// backoff, accept-time shedding, the in-flight limit, idle/write deadlines,
// and snapshot persistence. The deterministic chaos suite that drives all
// of these together under injected faults lives in chaos_test.go.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cuckoohash/internal/faultinject"
)

// scriptedListener feeds Serve a canned sequence of accept results, then
// parks until closed.
type scriptedListener struct {
	script []func() (net.Conn, error)
	calls  atomic.Int64
	done   chan struct{}
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	i := int(l.calls.Add(1)) - 1
	if i < len(l.script) {
		return l.script[i]()
	}
	<-l.done
	return nil, net.ErrClosed
}

func (l *scriptedListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *scriptedListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestServeRetriesTemporaryAcceptErrors is the regression test for the
// accept loop dying on the first transient error: temporary failures must
// be retried with backoff, and only permanent ones may end Serve.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	permanent := errors.New("listener torn out of the socket")
	temp := func() (net.Conn, error) { return nil, &faultinject.AcceptError{} }
	ln := &scriptedListener{
		script: []func() (net.Conn, error){temp, temp, temp,
			func() (net.Conn, error) { return nil, permanent }},
		done: make(chan struct{}),
	}
	defer ln.Close()
	s.ln = ln

	start := time.Now()
	if err := s.Serve(); !errors.Is(err, permanent) {
		t.Fatalf("Serve = %v, want the permanent error", err)
	}
	// Three retries at 5, 10, 20ms minimum.
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Fatalf("Serve returned after %v; backoff did not happen", d)
	}
	if got := s.cache.stats.acceptRetries.Load(); got != 3 {
		t.Fatalf("acceptRetries = %d, want 3", got)
	}
}

func TestTemporaryAcceptClassification(t *testing.T) {
	if !isTemporaryAcceptErr(&faultinject.AcceptError{}) {
		t.Fatal("injected accept error not classified temporary")
	}
	if isTemporaryAcceptErr(net.ErrClosed) {
		t.Fatal("net.ErrClosed classified temporary")
	}
	if isTemporaryAcceptErr(errors.New("boom")) {
		t.Fatal("arbitrary error classified temporary")
	}
}

// TestMaxConnsShedsWithBusy: connections past the cap get "ERR busy" and a
// close — an explicit, retryable rejection.
func TestMaxConnsShedsWithBusy(t *testing.T) {
	s := startServer(t, Config{SweepInterval: -1, MaxConns: 1})

	c1 := dialRaw(t, s)
	// Complete one round trip so the handler (and connsActive) is up.
	if got := c1.roundTrip("SET a 1"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}

	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ERR busy" {
		t.Fatalf("shed conn got %q, %v; want ERR busy", line, err)
	}
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("shed conn not closed after ERR busy")
	}
	if got := s.cache.stats.connsShed.Load(); got != 1 {
		t.Fatalf("connsShed = %d, want 1", got)
	}

	// Closing the first connection frees the slot for new clients.
	c1.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		nc2, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		nc2.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := nc2.Write([]byte("GET a\n")); err == nil {
			line, err := bufio.NewReader(nc2).ReadString('\n')
			if err == nil && strings.TrimSpace(line) == "VALUE 1" {
				nc2.Close()
				return
			}
		}
		nc2.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInflightLimitFastFails: with MaxInflight saturated by a stalled SET,
// other cache ops get ERR busy immediately — but STATS must still work so
// an overloaded server remains observable.
func TestInflightLimitFastFails(t *testing.T) {
	s := startServer(t, Config{SweepInterval: -1, MaxInflight: 1})
	block := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	s.cache.SetFailpoint(func(op, key string) error {
		if key == "slow" && first.CompareAndSwap(true, false) {
			<-block
		}
		return nil
	})

	c1 := dialRaw(t, s)
	c1.send("SET slow v\n")
	// Wait until the stalled SET actually holds the in-flight slot.
	waitUntil(t, time.Second, func() bool { return !first.Load() })

	c2 := dialRaw(t, s)
	if got := c2.roundTrip("SET other v"); got != "ERR busy" {
		t.Fatalf("saturated SET = %q, want ERR busy", got)
	}
	if got := c2.roundTrip("STATS"); !strings.HasPrefix(got, "STAT ") {
		t.Fatalf("STATS while saturated = %q, want STAT lines", got)
	}
	for c2.readLine() != "END" { // drain the rest of the STATS response
	}
	if got := s.cache.stats.busyRejected.Load(); got == 0 {
		t.Fatal("busyRejected = 0 after a rejection")
	}

	close(block)
	if got := c1.readLine(); got != "OK" {
		t.Fatalf("unblocked SET = %q, want OK", got)
	}
	if got := c2.roundTrip("SET other v"); got != "OK" {
		t.Fatalf("SET after release = %q, want OK", got)
	}
}

// TestIdleTimeoutClosesConnection: a connection idle at a batch boundary
// past IdleTimeout is closed and counted.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	s := startServer(t, Config{SweepInterval: -1, IdleTimeout: 50 * time.Millisecond})
	c := dialRaw(t, s)
	if got := c.roundTrip("SET a 1"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle conn read = %v, want server-side close", err)
	}
	if got := s.cache.stats.idleClosed.Load(); got != 1 {
		t.Fatalf("idleClosed = %d, want 1", got)
	}
	// An active connection keeps working well past the idle timeout.
	c2 := dialRaw(t, s)
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		if got := c2.roundTrip("GET a"); got != "VALUE 1" {
			t.Fatalf("active conn GET = %q at iteration %d", got, i)
		}
	}
}

// TestWriteTimeoutDropsStalledReader: a client that requests far more data
// than it reads must not pin the handler; the write deadline closes it.
func TestWriteTimeoutDropsStalledReader(t *testing.T) {
	s := startServer(t, Config{SweepInterval: -1, IOTimeout: 100 * time.Millisecond})
	val := strings.Repeat("x", 32<<10)
	if err := s.cache.Set("big", val, 0); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Pipeline enough GETs that the responses overwhelm every buffer in
	// the path while we deliberately never read a byte.
	var req bytes.Buffer
	for i := 0; i < 2000; i++ {
		req.WriteString("GET big\n")
	}
	if _, err := nc.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		return s.cache.stats.ioTimeouts.Load() > 0
	})
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotRoundTrip: save → load preserves live entries and their
// expiry times, and drops entries that died in between.
func TestSnapshotRoundTrip(t *testing.T) {
	src, err := NewCache(4, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := src.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Set("ttl", "v", time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := src.Set("dead", "v", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let "dead" expire
	// "dying" is alive at the save and dead at the load.
	dying := time.Now().Add(100 * time.Millisecond)
	if err := src.Set("dying", "v", time.Until(dying)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("dying")) {
		t.Fatal("entry alive at the save left out of the snapshot")
	}
	time.Sleep(time.Until(dying))
	dst, err := NewCache(8, 1<<10) // different shard count: restore re-hashes
	if err != nil {
		t.Fatal(err)
	}
	n, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 501 {
		t.Fatalf("loaded %d entries, want 501", n)
	}
	for i := 0; i < 500; i++ {
		if v, ok := dst.Get(fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q, %v after restore", i, v, ok)
		}
	}
	if d, ok := dst.TTL("ttl"); !ok || d <= 0 || d > time.Hour {
		t.Fatalf("restored TTL = %v, %v", d, ok)
	}
	for _, k := range []string{"dead", "dying"} {
		if _, ok := dst.Get(k); ok {
			t.Fatalf("expired entry %q resurrected by restore", k)
		}
	}
}

// TestSnapshotRejectsCorruption: every corruption class fails cleanly with
// ErrBadSnapshot and leaves the target cache untouched.
func TestSnapshotRejectsCorruption(t *testing.T) {
	src, err := NewCache(2, 1<<8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		src.Set(fmt.Sprintf("k%d", i), "v", 0)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := map[string][]byte{
		"empty":     {},
		"badmagic":  append([]byte{0xde, 0xad}, good[2:]...),
		"truncated": good[:len(good)/2],
		"no-crc":    good[:len(good)-8],
	}
	// Flip one bit in the CRC trailer specifically.
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0x01
	corrupt["flipped-crc"] = flipped
	// Flip a record byte so the CRC no longer matches the content.
	body := bytes.Clone(good)
	body[20] ^= 0xff
	corrupt["flipped-body"] = body
	// Wrong version word.
	ver := bytes.Clone(good)
	ver[8] = 0x63
	corrupt["badversion"] = ver
	// A key length past any record's.
	long := bytes.Clone(good)
	binary.LittleEndian.PutUint32(long[16:], maxSnapshotStr+1)
	corrupt["implausible-length"] = long
	// Cut anywhere: in the header, a record, the trailer.
	for n := range good {
		corrupt[fmt.Sprintf("cut-%d", n)] = good[:n]
	}

	for name, data := range corrupt {
		dst, err := NewCache(2, 1<<8)
		if err != nil {
			t.Fatal(err)
		}
		if _, lerr := dst.LoadSnapshot(bytes.NewReader(data)); !errors.Is(lerr, ErrBadSnapshot) {
			t.Errorf("%s: LoadSnapshot = %v, want ErrBadSnapshot", name, lerr)
		}
		if dst.Len() != 0 {
			t.Errorf("%s: corrupt load applied %d entries", name, dst.Len())
		}
	}

	// A writer that fails in the header, in the body or at the trailer:
	// SaveSnapshot returns its error.
	for _, at := range []int{0, 20, len(good) - 4} {
		if err := src.SaveSnapshot(&failingWriter{room: at}); !errors.Is(err, errWriteFailed) {
			t.Errorf("writer failing at byte %d: SaveSnapshot = %v, want its error", at, err)
		}
	}
}

// TestSnapshotLoadsVersion1: a stream in the pre-replication format —
// version 1, records without the version word — still loads, every record
// at version 0, which any replicated write then beats. The stream is built
// by hand, as a version-1 writer laid it out, since nothing writes one now.
func TestSnapshotLoadsVersion1(t *testing.T) {
	var body []byte
	u32 := func(v uint32) { body = binary.LittleEndian.AppendUint32(body, v) }
	u64 := func(v uint64) { body = binary.LittleEndian.AppendUint64(body, v) }
	u64(cacheSnapMagic)
	u64(cacheSnapVersionNoVer)
	const records = 3
	for i := range records {
		key, val := fmt.Sprintf("v1-key-%d", i), fmt.Sprintf("v1 value %d", i)
		u32(uint32(len(key)))
		body = append(body, key...)
		u32(uint32(len(val)))
		body = append(body, val...)
		u64(0) // expireAt: none
	}
	u32(cacheSnapEnd)
	u64(records)
	stream := binary.LittleEndian.AppendUint64(body, crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))

	s := startServer(t, Config{})
	if n, err := s.cache.LoadSnapshot(bytes.NewReader(stream)); err != nil || n != records {
		t.Fatalf("LoadSnapshot(version 1) = %d, %v; want %d records", n, err, records)
	}
	c := dialRaw(t, s)
	for i := range records {
		if got, want := c.roundTrip(fmt.Sprintf("GETV v1-key-%d", i)), fmt.Sprintf("VALUEV 0 v1 value %d", i); got != want {
			t.Fatalf("GETV v1-key-%d = %q, want %q", i, got, want)
		}
	}
	if got := c.roundTrip("REPLSET v1-key-1 1 0 replicated"); got != "OK" {
		t.Fatalf("REPLSET at version 1 over a version-1 record = %q, want OK", got)
	}
	if got := c.roundTrip("GETV v1-key-1"); got != "VALUEV 1 replicated" {
		t.Fatalf("GETV after the REPLSET = %q, want VALUEV 1 replicated", got)
	}
}

var errWriteFailed = errors.New("write failed")

// failingWriter accepts room bytes, then fails every write.
type failingWriter struct{ room int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.room {
		w.room -= len(p)
		return len(p), nil
	}
	n := w.room
	w.room = 0
	return n, errWriteFailed
}

// TestDrainSavesAndRestartRestores is the crash-recovery acceptance test:
// a drained daemon persists its keyspace, and a new daemon on the same
// snapshot path serves it again.
func TestDrainSavesAndRestartRestores(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cuckood.snap")

	s1 := startServer(t, Config{SweepInterval: -1, SnapshotPath: snap})
	c := dialRaw(t, s1)
	for i := 0; i < 100; i++ {
		if got := c.roundTrip(fmt.Sprintf("SET key%d val%d", i, i)); got != "OK" {
			t.Fatalf("SET key%d = %q", i, got)
		}
	}
	c.conn.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written on drain: %v", err)
	}
	if got := s1.cache.stats.snapSaves.Load(); got != 1 {
		t.Fatalf("snapSaves = %d, want 1", got)
	}

	s2 := startServer(t, Config{SweepInterval: -1, SnapshotPath: snap})
	c2 := dialRaw(t, s2)
	for i := 0; i < 100; i++ {
		want := fmt.Sprintf("VALUE val%d", i)
		if got := c2.roundTrip(fmt.Sprintf("GET key%d", i)); got != want {
			t.Fatalf("after restart GET key%d = %q, want %q", i, got, want)
		}
	}
	if got := s2.cache.stats.snapLoads.Load(); got != 1 {
		t.Fatalf("snapLoads = %d, want 1", got)
	}

	// A corrupt snapshot must not keep the daemon down: start cold instead.
	if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := startServer(t, Config{SweepInterval: -1, SnapshotPath: snap})
	c3 := dialRaw(t, s3)
	if got := c3.roundTrip("GET key0"); got != "MISS" {
		t.Fatalf("cold start after corrupt snapshot GET = %q, want MISS", got)
	}
}

// TestStatsIncludesRobustnessCounters pins the STATS contract for the new
// counters so dashboards can rely on the names.
func TestStatsIncludesRobustnessCounters(t *testing.T) {
	s := startServer(t, Config{SweepInterval: -1})
	c := dialRaw(t, s)
	c.send("STATS\n")
	got := make(map[string]bool)
	for {
		line := c.readLine()
		if line == "END" {
			break
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(line, "STAT "), " ")
		got[name] = true
	}
	for _, want := range []string{
		"accept_retries", "conns_shed", "busy_rejected", "idle_closed",
		"io_timeouts", "snapshot_saves", "snapshot_loads",
		"snapshot_last_save_ns", "snapshot_last_load_ns",
	} {
		if !got[want] {
			t.Errorf("STATS missing %q", want)
		}
	}
}
