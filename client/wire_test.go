package client_test

// Wire transcript: the exact request bytes every exported Conn verb and
// the Pool's traced pair put on the socket, recorded by a fake listener
// that answers from a script. The bytes are the client's half of
// docs/PROTOCOL.md; a restructuring of the client must leave this file
// passing unedited.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"cuckoohash/client"
)

// wireStep is one call against the fake server: want is the request the
// call must send, byte for byte, and reply what the server answers once
// it has read that many lines.
type wireStep struct {
	name  string
	want  string
	reply string
}

// wireServer accepts one connection and, per step, reads as many lines as
// the step's request holds, records them and writes the canned reply. The
// recorded requests arrive on the returned channel when the script ends
// or the peer hangs up.
func wireServer(t *testing.T, steps []wireStep) (string, <-chan []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan []string, 1)
	go func() {
		var got []string
		defer func() { done <- got }()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := bufio.NewReader(nc)
		for _, st := range steps {
			var req strings.Builder
			for i := strings.Count(st.want, "\n"); i > 0; i-- {
				line, err := r.ReadString('\n')
				req.WriteString(line)
				if err != nil {
					got = append(got, req.String())
					return
				}
			}
			got = append(got, req.String())
			if _, err := nc.Write([]byte(st.reply)); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), done
}

// checkTranscript compares what the fake server read with the script.
func checkTranscript(t *testing.T, steps []wireStep, got []string) {
	t.Helper()
	if len(got) != len(steps) {
		t.Fatalf("server recorded %d requests, script has %d", len(got), len(steps))
	}
	for i, st := range steps {
		if got[i] != st.want {
			t.Errorf("%s: sent %q, want %q", st.name, got[i], st.want)
		}
	}
}

func TestConnWireTranscript(t *testing.T) {
	const migrateLine = "MIGRATE home d:1 s:1 9 0 s:1,d:1\n"
	txn := func() *client.Txn {
		return client.NewTxn().Get("a").Set("b", "v w", 0).Set("e", "v", time.Second).
			Del("d").Incr("c", 2).MaxUpdate("m", 5).CAS("k", "old", "new v")
	}
	const txnLines = "GET a\nSET b v w\nSETEX e 1000 v\nDEL d\nINCR c 2\nMAXUPDATE m 5\nCAS k old new v\n"
	const txnReply = "OK\n" + "QUEUED\nQUEUED\nQUEUED\nQUEUED\nQUEUED\nQUEUED\nQUEUED\n" +
		"EXEC 7\nVALUE x\nOK\nOK\nMISS\nOK\nOK\nCONFLICT\n"

	// Each step's call runs the verb and checks what it projects out of
	// the canned reply; the request bytes are compared at the end.
	type step struct {
		wireStep
		call func(c *client.Conn) error
	}
	fail := fmt.Errorf
	steps := []step{
		{wireStep{"Get hit", "GET k\n", "VALUE v 1\n"}, func(c *client.Conn) error {
			v, ok, err := c.Get("k")
			if err != nil || !ok || v != "v 1" {
				return fail("= %q, %v, %v", v, ok, err)
			}
			return nil
		}},
		{wireStep{"Get miss", "GET k\n", "MISS\n"}, func(c *client.Conn) error {
			v, ok, err := c.Get("k")
			if err != nil || ok || v != "" {
				return fail("= %q, %v, %v", v, ok, err)
			}
			return nil
		}},
		{wireStep{"Get ERR", "GET k\n", "ERR boom\n"}, func(c *client.Conn) error {
			_, ok, err := c.Get("k")
			var se *client.ServerError
			if ok || !errors.As(err, &se) || se.Msg != "boom" {
				return fail("= %v, %v", ok, err)
			}
			return nil
		}},
		{wireStep{"Set", "SET k v w\n", "OK\n"}, func(c *client.Conn) error {
			return c.Set("k", "v w", 0)
		}},
		{wireStep{"Set ttl", "SETEX k 2 v\n", "OK\n"}, func(c *client.Conn) error {
			return c.Set("k", "v", 1500*time.Microsecond)
		}},
		{wireStep{"Del", "DEL k\n", "OK\n"}, func(c *client.Conn) error {
			found, err := c.Del("k")
			if err != nil || !found {
				return fail("= %v, %v", found, err)
			}
			return nil
		}},
		{wireStep{"GetV", "GETV k\n", "VALUEV 7 v x\n"}, func(c *client.Conn) error {
			v, ver, ok, err := c.GetV("k")
			if err != nil || !ok || ver != 7 || v != "v x" {
				return fail("= %q, %d, %v, %v", v, ver, ok, err)
			}
			return nil
		}},
		{wireStep{"SetV", "SETV k 0 v\n", "VER 9\n"}, func(c *client.Conn) error {
			ver, err := c.SetV("k", "v", 0)
			if err != nil || ver != 9 {
				return fail("= %d, %v", ver, err)
			}
			return nil
		}},
		{wireStep{"Lease", "LEASE k\n", "LEASE ff 2000\n"}, func(c *client.Conn) error {
			rep, err := c.Lease("k")
			if err != nil || rep.Lease != 0xff || rep.LeaseTTL != 2*time.Second {
				return fail("= %+v, %v", rep, err)
			}
			return nil
		}},
		{wireStep{"SetLease", "SETL k ff 1000 v\n", "VER 10\n"}, func(c *client.Conn) error {
			ver, filled, err := c.SetLease("k", 0xff, "v", time.Second)
			if err != nil || !filled || ver != 10 {
				return fail("= %d, %v, %v", ver, filled, err)
			}
			return nil
		}},
		{wireStep{"TTL", "TTL k\n", "TTL -1\n"}, func(c *client.Conn) error {
			d, ok, err := c.TTL("k")
			if err != nil || !ok || d != -1 {
				return fail("= %v, %v, %v", d, ok, err)
			}
			return nil
		}},
		{wireStep{"Incr", "INCR n -3\n", "OK\n"}, func(c *client.Conn) error {
			return c.Incr("n", -3)
		}},
		{wireStep{"MaxUpdate", "MAXUPDATE n 8\n", "ERR not an integer\n"}, func(c *client.Conn) error {
			var se *client.ServerError
			if err := c.MaxUpdate("n", 8); !errors.As(err, &se) {
				return fail("= %v, want a ServerError", err)
			}
			return nil
		}},
		{wireStep{"CAS conflict", "CAS k a b c\n", "CONFLICT\n"}, func(c *client.Conn) error {
			stored, found, err := c.CAS("k", "a", "b c")
			if err != nil || stored || !found {
				return fail("= %v, %v, %v", stored, found, err)
			}
			return nil
		}},
		{wireStep{"CAS stored", "CAS k a b\n", "OK\n"}, func(c *client.Conn) error {
			stored, found, err := c.CAS("k", "a", "b")
			if err != nil || !stored || !found {
				return fail("= %v, %v, %v", stored, found, err)
			}
			return nil
		}},
		{wireStep{"Stats", "STATS\n", "STAT sets 2\nSTAT note two words\nEND\n"}, func(c *client.Conn) error {
			st, err := c.Stats()
			if want := map[string]string{"sets": "2", "note": "two words"}; err != nil || !reflect.DeepEqual(st, want) {
				return fail("= %v, %v", st, err)
			}
			return nil
		}},
		{wireStep{"ClusterInfo", "CLUSTER\n", "CLUSTER entries 3\nCLUSTER load 0.5\nEND\n"}, func(c *client.Conn) error {
			info, err := c.ClusterInfo()
			if want := map[string]string{"entries": "3", "load": "0.5"}; err != nil || !reflect.DeepEqual(info, want) {
				return fail("= %v, %v", info, err)
			}
			return nil
		}},
		{wireStep{"HotKeys default", "HOTKEYS\n", "END\n"}, func(c *client.Conn) error {
			hk, err := c.HotKeys(0)
			if err != nil || len(hk) != 0 {
				return fail("= %v, %v", hk, err)
			}
			return nil
		}},
		{wireStep{"HotKeys n", "HOTKEYS 5\n", "HOTKEY 4 k\nHOTKEY 2 j\nEND\n"}, func(c *client.Conn) error {
			hk, err := c.HotKeys(5)
			if want := []client.HotKey{{Key: "k", Count: 4}, {Key: "j", Count: 2}}; err != nil || !reflect.DeepEqual(hk, want) {
				return fail("= %v, %v", hk, err)
			}
			return nil
		}},
		{wireStep{"HotKeys ERR", "HOTKEYS 5\n", "ERR hot keys disabled\n"}, func(c *client.Conn) error {
			var se *client.ServerError
			if _, err := c.HotKeys(5); !errors.As(err, &se) {
				return fail("= %v, want a ServerError", err)
			}
			return nil
		}},
		{wireStep{"Migrate", migrateLine, "MIGRATED 12\n"}, func(c *client.Conn) error {
			n, err := c.Migrate("home", "d:1", "s:1", 9, 0, "s:1,d:1")
			if err != nil || n != 12 {
				return fail("= %d, %v", n, err)
			}
			return nil
		}},
		{wireStep{"ExecTxn", "MULTI\n" + txnLines + "EXEC\n", txnReply}, func(c *client.Conn) error {
			reps, err := c.ExecTxn(txn())
			if err != nil || len(reps) != 7 || reps[0].Value != "x" || reps[3].Found || !reps[6].Conflict {
				return fail("= %+v, %v", reps, err)
			}
			return nil
		}},
		{wireStep{"pipeline", "GET a\nSET b v\nDEL c\nTTL d\nGETV e\nSETV f 250 v\nLEASE g\nSETL h 1 0 v\nINCR i 1\nMAXUPDATE j 2\nCAS k o n\n",
			"MISS\nOK\nMISS\nTTL 40\nMISS\nVER 3\nWAIT 20\nMISS\nOK\nOK\nMISS\n"}, func(c *client.Conn) error {
			for _, err := range []error{
				c.QueueGet("a"), c.QueueSet("b", "v", 0), c.QueueDel("c"), c.QueueTTL("d"),
				c.QueueGetV("e"), c.QueueSetV("f", "v", 250*time.Millisecond), c.QueueLease("g"),
				c.QueueSetLease("h", 1, "v", 0), c.QueueIncr("i", 1), c.QueueMaxUpdate("j", 2),
				c.QueueCAS("k", "o", "n"),
			} {
				if err != nil {
					return err
				}
			}
			reps, err := c.Flush()
			if err != nil || len(reps) != 11 || reps[3].TTL != 40*time.Millisecond || reps[5].Ver != 3 || reps[6].Wait != 20*time.Millisecond {
				return fail("= %+v, %v", reps, err)
			}
			return nil
		}},

		// With a trace ID set, every verb that carries one prefixes its
		// own line; STATS and CLUSTER never do.
		{wireStep{"traced Get", "TRACE t1 GET k\n", "MISS\n"}, func(c *client.Conn) error {
			if err := c.SetTrace("t1"); err != nil {
				return err
			}
			_, _, err := c.Get("k")
			return err
		}},
		{wireStep{"traced Set", "TRACE t1 SETEX k 1000 v\n", "OK\n"}, func(c *client.Conn) error {
			return c.Set("k", "v", time.Second)
		}},
		{wireStep{"traced HotKeys", "TRACE t1 HOTKEYS\n", "END\n"}, func(c *client.Conn) error {
			_, err := c.HotKeys(0)
			return err
		}},
		{wireStep{"traced Migrate", "TRACE t1 " + migrateLine, "MIGRATED 0\n"}, func(c *client.Conn) error {
			_, err := c.Migrate("home", "d:1", "s:1", 9, 0, "s:1,d:1")
			return err
		}},
		{wireStep{"traced ExecTxn", "MULTI\nGET a\nTRACE t1 EXEC\n", "OK\nQUEUED\nEXEC 1\nMISS\n"}, func(c *client.Conn) error {
			_, err := c.ExecTxn(client.NewTxn().Get("a"))
			return err
		}},
		{wireStep{"traced Stats", "STATS\n", "END\n"}, func(c *client.Conn) error {
			_, err := c.Stats()
			return err
		}},
		{wireStep{"traced ClusterInfo", "CLUSTER\n", "END\n"}, func(c *client.Conn) error {
			_, err := c.ClusterInfo()
			return err
		}},
		{wireStep{"trace cleared", "GET k\n", "MISS\n"}, func(c *client.Conn) error {
			if err := c.SetTrace(""); err != nil {
				return err
			}
			_, _, err := c.Get("k")
			return err
		}},
	}

	script := make([]wireStep, len(steps))
	for i, st := range steps {
		script[i] = st.wireStep
	}
	addr, done := wireServer(t, script)
	c, err := client.DialTimeout(addr, time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if err := st.call(c); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
	}
	c.Close()
	checkTranscript(t, script, <-done)
}

// TestPoolWireTranscriptTraced pins the pooled traced pair: the ID rides
// on the one request and is gone from the connection when it returns to
// the pool.
func TestPoolWireTranscriptTraced(t *testing.T) {
	script := []wireStep{
		{"SetTraced", "TRACE tid SET k v\n", "OK\n"},
		{"GetTraced", "TRACE tid GET k\n", "VALUE v\n"},
		{"Get1", "GET k\n", "VALUE v\n"},
	}
	addr, done := wireServer(t, script)
	p := client.NewPoolWith(addr, client.Options{Size: 1, IOTimeout: 2 * time.Second})
	if err := p.SetTraced("k", "v", 0, "tid"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := p.GetTraced("k", "tid"); err != nil || !ok || v != "v" {
		t.Fatalf("GetTraced = %q, %v, %v", v, ok, err)
	}
	if v, ok, err := p.Get1("k"); err != nil || !ok || v != "v" {
		t.Fatalf("Get1 = %q, %v, %v", v, ok, err)
	}
	if st := p.Stats(); st.Dials != 1 {
		t.Errorf("pool dialed %d connections for three sequential calls, want 1", st.Dials)
	}
	p.Close()
	checkTranscript(t, script, <-done)
}

// TestQueueAllocFree holds the pipelined encoders to zero allocations per
// request once the pending list has grown: the benchmark's client.codec
// row is this path.
func TestQueueAllocFree(t *testing.T) {
	const warm = 512
	script := []wireStep{{"warm", strings.Repeat("GET k\n", warm), strings.Repeat("MISS\n", warm)}}
	addr, done := wireServer(t, script)
	c, err := client.DialTimeout(addr, time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if err := c.QueueGet("k"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// 2 x 101 requests stay inside the grown pending list and the 64 KB
	// write buffer, so nothing below touches the socket.
	if n := testing.AllocsPerRun(100, func() {
		if err := c.QueueGet("some-key"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("QueueGet allocates %v times per request, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.QueueSet("some-key", "some value", 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("QueueSet allocates %v times per request, want 0", n)
	}
	c.Close()
	<-done
}
