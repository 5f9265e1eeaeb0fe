package client

// Tests for the transaction verbs: counter/CAS round trips, the Txn
// builder's MULTI…EXEC exchange, cluster routing, and — the contract the
// whole file exists to pin down — that none of the non-idempotent verbs
// are ever retried, even when the pool's retry policy is fully enabled.

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

func TestConnTxnVerbs(t *testing.T) {
	s := startBackend(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Incr("n", 5); err != nil {
		t.Fatalf("Incr: %v", err)
	}
	if err := c.Incr("n", -2); err != nil {
		t.Fatalf("Incr negative: %v", err)
	}
	if v, ok, _ := c.Get("n"); !ok || v != "3" {
		t.Fatalf("Get n = %q, %v, want 3", v, ok)
	}
	if err := c.MaxUpdate("n", 10); err != nil {
		t.Fatalf("MaxUpdate: %v", err)
	}
	if err := c.MaxUpdate("n", 7); err != nil {
		t.Fatalf("MaxUpdate lower: %v", err)
	}
	if v, _, _ := c.Get("n"); v != "10" {
		t.Fatalf("Get n = %q after MaxUpdate, want 10", v)
	}

	stored, found, err := c.CAS("n", "10", "20")
	if err != nil || !stored || !found {
		t.Fatalf("CAS match = %v, %v, %v", stored, found, err)
	}
	stored, found, err = c.CAS("n", "10", "30")
	if err != nil || stored || !found {
		t.Fatalf("CAS conflict = %v, %v, %v", stored, found, err)
	}
	stored, found, err = c.CAS("missing", "x", "y")
	if err != nil || stored || found {
		t.Fatalf("CAS miss = %v, %v, %v", stored, found, err)
	}

	// Counter verbs preserve a TTL set before them.
	if err := c.Set("tk", "1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Incr("tk", 1); err != nil {
		t.Fatal(err)
	}
	if d, ok, _ := c.TTL("tk"); !ok || d <= 0 {
		t.Fatalf("TTL after Incr = %v, %v, want finite", d, ok)
	}

	// An INCR against a non-integer surfaces as a ServerError.
	if err := c.Set("s", "text", 0); err != nil {
		t.Fatal(err)
	}
	var se *ServerError
	if err := c.Incr("s", 1); !errors.As(err, &se) {
		t.Fatalf("Incr on non-integer = %v, want ServerError", err)
	}
}

func TestConnExecTxn(t *testing.T) {
	s := startBackend(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("bal", "100", 0); err != nil {
		t.Fatal(err)
	}
	txn := NewTxn().
		Incr("bal", -30).
		Incr("saved", 30).
		Get("bal").
		CAS("bal", "70", "seventy").
		Del("missing")
	replies, err := c.ExecTxn(txn)
	if err != nil {
		t.Fatalf("ExecTxn: %v", err)
	}
	if len(replies) != 5 {
		t.Fatalf("got %d replies, want 5", len(replies))
	}
	if replies[2].Value != "70" {
		t.Fatalf("txn GET saw %q, want 70 (read-your-writes)", replies[2].Value)
	}
	if !replies[3].Found || replies[3].Conflict {
		t.Fatalf("txn CAS = %+v, want stored", replies[3])
	}
	if replies[4].Found {
		t.Fatal("DEL of missing key reported found")
	}
	if v, _, _ := c.Get("bal"); v != "seventy" {
		t.Fatalf("bal = %q after txn, want seventy", v)
	}
	if v, _, _ := c.Get("saved"); v != "30" {
		t.Fatalf("saved = %q after txn, want 30", v)
	}

	// The connection is reusable for both plain ops and further txns.
	if _, err := c.ExecTxn(NewTxn().Get("bal")); err != nil {
		t.Fatalf("second ExecTxn: %v", err)
	}
}

func TestExecTxnValidationSticks(t *testing.T) {
	s := startBackend(t)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	txn := NewTxn().Set("bad key", "v", 0).Incr("fine", 1)
	if _, err := c.ExecTxn(txn); err == nil {
		t.Fatal("ExecTxn with invalid key succeeded")
	}
	// Nothing was sent: the valid op did not run.
	if _, ok, _ := c.Get("fine"); ok {
		t.Fatal("op after a poisoned builder was applied")
	}
	for name, txn := range map[string]*Txn{
		"newline in a SET value": NewTxn().Set("k", "a\nb", 0).Incr("fine", 1),
		"empty CAS expected":     NewTxn().CAS("k", "", "v").Incr("fine", 1),
		"spaced CAS expected":    NewTxn().CAS("k", "a b", "v").Incr("fine", 1),
		"newline in a CAS value": NewTxn().CAS("k", "a", "b\r").Incr("fine", 1),
		"first error sticks":     NewTxn().Set("bad key", "v", 0).CAS("k", "", "v"),
	} {
		if _, err := c.ExecTxn(txn); err == nil || err != txn.Err() {
			t.Fatalf("%s: ExecTxn = %v, want the builder's error %v", name, err, txn.Err())
		}
	}
	if _, _, err := c.CAS("k", "a b", "v"); err == nil {
		t.Fatal("CAS with a spaced expected value queued")
	}
	if _, ok, _ := c.Get("fine"); ok {
		t.Fatal("op after a poisoned builder was applied")
	}

	// One op past the server's queue bound: the server refuses it at
	// queue time, and EXEC aborts the whole transaction.
	long := NewTxn()
	for range 65 {
		long.Incr("fine", 1)
	}
	if _, err := c.ExecTxn(long); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("65-op ExecTxn = %v, want ErrTxnAborted", err)
	}
	if _, ok, _ := c.Get("fine"); ok {
		t.Fatal("an aborted transaction was applied")
	}
}

func TestPoolTxnVerbs(t *testing.T) {
	s := startBackend(t)
	p := NewPool(s.Addr().String(), 2)
	defer p.Close()

	if err := p.Incr("n", 4); err != nil {
		t.Fatalf("Incr: %v", err)
	}
	if err := p.MaxUpdate("n", 9); err != nil {
		t.Fatalf("MaxUpdate: %v", err)
	}
	stored, found, err := p.CAS("n", "9", "done")
	if err != nil || !stored || !found {
		t.Fatalf("CAS = %v, %v, %v", stored, found, err)
	}
	replies, err := p.ExecTxn(NewTxn().Get("n"))
	if err != nil || len(replies) != 1 || replies[0].Value != "done" {
		t.Fatalf("ExecTxn = %+v, %v", replies, err)
	}
}

// TestTxnVerbsNeverRetried is the regression test for the retry budget's
// idempotence boundary: INCR, MAXUPDATE, CAS, and EXEC stay single-attempt
// even with retries at maximum and RetrySets opted in — RetrySets covers
// last-writer-wins SETs, not read-modify-write verbs. A retried INCR
// double-counts; a retried EXEC reruns a whole transaction.
func TestTxnVerbsNeverRetried(t *testing.T) {
	ops := []struct {
		name string
		run  func(p *Pool) error
	}{
		{"Incr", func(p *Pool) error { return p.Incr("k", 1) }},
		{"MaxUpdate", func(p *Pool) error { return p.MaxUpdate("k", 1) }},
		{"CAS", func(p *Pool) error { _, _, err := p.CAS("k", "a", "b"); return err }},
		{"ExecTxn", func(p *Pool) error { _, err := p.ExecTxn(NewTxn().Incr("k", 1)); return err }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			s := startBackend(t)
			var dials atomic.Int64
			p := NewPoolWith(s.Addr().String(), Options{
				Size:        1,
				MaxRetries:  3,
				RetrySets:   true, // even the broadest opt-in must not cover these
				BackoffBase: time.Millisecond,
				BackoffMax:  2 * time.Millisecond,
				Seed:        13,
				DialFunc: func(addr string, timeout time.Duration) (net.Conn, error) {
					nc, err := net.DialTimeout("tcp", addr, timeout)
					if err == nil && dials.Add(1) == 1 {
						nc.Close() // first connection is dead on arrival
					}
					return nc, err
				},
			})
			defer p.Close()

			if err := op.run(p); err == nil {
				t.Fatalf("%s over a dead conn succeeded — it must have retried", op.name)
			}
			if st := p.Stats(); st.Retries != 0 {
				t.Fatalf("%s performed %d retries, want 0", op.name, st.Retries)
			}
			// Sanity: the same pool DOES retry an idempotent GET, so the
			// zero above is the verb's exclusion, not a broken fixture.
			if _, _, err := p.Get1("k"); err != nil {
				t.Fatalf("follow-up Get1: %v", err)
			}
		})
	}
}

func TestClusterTxnRouting(t *testing.T) {
	s1, s2 := startBackend(t), startBackend(t)
	addrs := []string{s1.Addr().String(), s2.Addr().String()}
	cl, err := NewCluster(addrs, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Find keys with different primary nodes, and two sharing one.
	var onA, onB, alsoOnA string
	for i := 0; onB == "" || alsoOnA == ""; i++ {
		key := "k" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		pi, _ := cl.Ring().Candidates(key)
		switch {
		case onA == "" && pi == 0:
			onA = key
		case pi == 0:
			alsoOnA = key
		case onB == "":
			onB = key
		}
		if i > 10_000 {
			t.Fatal("could not find keys on both nodes")
		}
	}

	if err := cl.Incr(onA, 1); err != nil {
		t.Fatalf("Incr: %v", err)
	}
	if err := cl.MaxUpdate(onA, 2); err != nil {
		t.Fatalf("MaxUpdate: %v", err)
	}
	if _, _, err := cl.CAS(onA, "2", "two"); err != nil {
		t.Fatalf("CAS: %v", err)
	}
	if replies, err := cl.ExecTxn(NewTxn()); err != nil || replies != nil {
		t.Fatalf("empty ExecTxn = %+v, %v", replies, err)
	}
	if _, err := cl.ExecTxn(NewTxn().Set("bad key", "v", 0)); err == nil {
		t.Fatal("ExecTxn of an invalid builder succeeded")
	}
	replies, err := cl.ExecTxn(NewTxn().Get(onA).Incr(alsoOnA, 1))
	if err != nil || len(replies) != 2 || replies[0].Value != "two" {
		t.Fatalf("same-node ExecTxn = %+v, %v", replies, err)
	}
	if _, err := cl.ExecTxn(NewTxn().Incr(onA, 1).Incr(onB, 1)); !errors.Is(err, ErrCrossNodeTxn) {
		t.Fatalf("cross-node ExecTxn = %v, want ErrCrossNodeTxn", err)
	}
}
