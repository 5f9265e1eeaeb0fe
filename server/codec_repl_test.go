package server

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestReplReplyWireFormat pins the exact byte sequences the replication
// and lease reply writers emit. client.readReply parses these strings
// verbatim (client/replica_codec_test.go round-trips them through a real
// Conn), so any drift here is a cross-package protocol break.
func TestReplReplyWireFormat(t *testing.T) {
	cases := []struct {
		name  string
		emit  func(w *bufio.Writer)
		wants string
	}{
		{"valuev", func(w *bufio.Writer) { writeValue(w, tagValueV, 42, "hello world") }, "VALUEV 42 hello world\n"},
		{"valuev-empty", func(w *bufio.Writer) { writeValue(w, tagValueV, 7, "") }, "VALUEV 7 \n"},
		{"valuev-maxver", func(w *bufio.Writer) { writeValue(w, tagValueV, ^uint64(0), "v") }, "VALUEV 18446744073709551615 v\n"},
		{"ver", func(w *bufio.Writer) { writeCount(w, "VER ", 9) }, "VER 9\n"},
		{"lease", func(w *bufio.Writer) { writeLease(w, 0xdeadbeef, 2000) }, "LEASE deadbeef 2000\n"},
		{"lease-maxtoken", func(w *bufio.Writer) { writeLease(w, ^uint64(0), 1) }, "LEASE ffffffffffffffff 1\n"},
		{"wait", func(w *bufio.Writer) { writeCount(w, "WAIT ", 20) }, "WAIT 20\n"},
		{"stale-value", func(w *bufio.Writer) { writeValue(w, tagStale, 5, "old value") }, "STALE 5 old value\n"},
		{"stale-bare", writeStale, "STALE\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := bufio.NewWriter(&buf)
			tc.emit(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.wants {
				t.Fatalf("wire bytes = %q, want %q", got, tc.wants)
			}
		})
	}
}

// TestThreeFamilyTranscript pins, byte for byte, what each verb of the
// plain / versioned / leased families projects out of the one lookup and
// the one store, by running all of them against the same state: a live
// key, expired-but-unswept keys, and absent keys. Versions are made
// deterministic by seeding entries with fixed origin versions and by
// parking the version clock far in the future, where it counts by one.
func TestThreeFamilyTranscript(t *testing.T) {
	c, err := NewCache(1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	seed := func(key, val string, expireAt int64, ver uint64) {
		if ok, err := c.applyReplicaSet([]byte(key), []byte(val), expireAt, ver, nil); !ok || err != nil {
			t.Fatalf("seeding %s: applied=%v err=%v", key, ok, err)
		}
	}
	seed("live", "v", 0, 7)
	for _, k := range []string{"expG", "expV", "expL"} {
		seed(k, "old", 1, 5) // expired since 1970
	}
	// Leases already out on the two LEASE targets, so their replies are
	// the deterministic follower forms rather than a fresh random token.
	now := time.Now().UnixNano()
	tokExp, _, _ := c.leases.Acquire("expL", now)
	tokNone, _, _ := c.leases.Acquire("noneL", now)
	const base = uint64(1) << 62
	c.verClock.Store(base)

	s := &Server{cache: c}
	var cs connState
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, step := range []struct{ line, want string }{
		{"GET live", "VALUE v\n"},
		{"GETV live", "VALUEV 7 v\n"},
		{"LEASE live", "VALUEV 7 v\n"},
		{"GET expG", "MISS\n"},
		{"GETV expV", "MISS\n"},
		{"LEASE expL", "STALE 5 old\n"},
		{"GET none", "MISS\n"},
		{"GETV none", "MISS\n"},
		{"LEASE noneL", "WAIT 20\n"},

		{"SET s1 a", "OK\n"},
		{"SETEX s2 1500 b", "OK\n"},
		{"SETV s3 0 c", fmt.Sprintf("VER %d\n", base+3)},
		{"SETV s4 1500 d", fmt.Sprintf("VER %d\n", base+4)},
		{fmt.Sprintf("SETL expL %x 0 e", tokExp), fmt.Sprintf("VER %d\n", base+5)},
		{fmt.Sprintf("SETL noneL %x 1500 f", tokNone), fmt.Sprintf("VER %d\n", base+6)},
		{"SETL s1 1 0 x", "MISS\n"}, // no lease: nothing stored

		{"GETV s1", fmt.Sprintf("VALUEV %d a\n", base+1)},
		{"GETV s2", fmt.Sprintf("VALUEV %d b\n", base+2)},
		{"GETV s3", fmt.Sprintf("VALUEV %d c\n", base+3)},
		{"LEASE expL", fmt.Sprintf("VALUEV %d e\n", base+5)},
		{"GET noneL", "VALUE f\n"},
	} {
		buf.Reset()
		if _, quit := s.serveRequest([]byte(step.line), nil, w, &cs); quit {
			t.Fatalf("%q closed the connection", step.line)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != step.want {
			t.Errorf("%q replied %q, want %q", step.line, got, step.want)
		}
	}

	// GET and GETV deleted the expired copies they refused to serve.
	tbl := c.shards[0].table
	for _, k := range []string{"expG", "expV"} {
		if _, ok := tbl.Get(k); ok {
			t.Errorf("%s: expired copy survived its lazy expiry", k)
		}
	}
	// ttl 0 stored a persistent entry, ttl > 0 an expiring one.
	for key, expiring := range map[string]bool{"s1": false, "s2": true, "s3": false, "s4": true, "expL": false, "noneL": true} {
		d, ok := c.TTL(key)
		if !ok || (d > 0) != expiring || d > 1500*time.Millisecond {
			t.Errorf("TTL(%s) = %v, %v; want expiring=%v within 1.5s", key, d, ok, expiring)
		}
	}
}
