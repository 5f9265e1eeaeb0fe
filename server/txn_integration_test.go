package server

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Wire-level coverage for the transaction verbs (docs/TRANSACTIONS.md):
// the commutative counters (INCR/DECR/ADD/MAXUPDATE), CAS, and the
// MULTI…EXEC/DISCARD queue, exercised through a real TCP connection so
// parsing, dispatch, and reply rendering are all on the hook.

func TestCounterVerbs(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	cases := []struct{ req, want string }{
		{"INCR n", "OK"},     // missing key starts at 0
		{"GET n", "VALUE 1"}, // default delta is 1
		{"INCR n 41", "OK"},
		{"GET n", "VALUE 42"},
		{"DECR n 2", "OK"},
		{"GET n", "VALUE 40"},
		{"ADD n -40", "OK"},
		{"GET n", "VALUE 0"},
		{"MAXUPDATE m 7", "OK"}, // missing key: max(0, 7)
		{"GET m", "VALUE 7"},
		{"MAXUPDATE m 3", "OK"}, // lower operand is a no-op
		{"GET m", "VALUE 7"},
		{"MAXUPDATE m 9", "OK"},
		{"MAXUPDATE m 8", "OK"},
		{"GET m", "VALUE 9"},
		{"SET junk not-a-number", "OK"},
		{"INCR junk", "ERR " + ErrNotInteger.Error()},
		{"SET s hello", "OK"},
		{"GET s", "VALUE hello"},
		{"ADD", "ERR wrong number of arguments"}, // operand required for ADD/MAXUPDATE
		{"ADD k", "ERR wrong number of arguments"},
		{"INCR n zebra", "ERR delta must be a signed 64-bit integer"},
		{"INCR n 1 2", "ERR wrong number of arguments"},
	}
	for _, tc := range cases {
		if got := c.roundTrip(tc.req); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.req, got, tc.want)
		}
	}
	// INCR against a non-integer value is a type error, not silent garbage.
	if got := c.roundTrip("INCR s"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("INCR on non-integer: got %q, want ERR", got)
	}
}

func TestCounterTTLPreserved(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	if got := c.roundTrip("SETEX n 60000 5"); got != "OK" {
		t.Fatalf("SETEX: %q", got)
	}
	if got := c.roundTrip("INCR n"); got != "OK" {
		t.Fatalf("INCR: %q", got)
	}
	if got := c.roundTrip("GET n"); got != "VALUE 6" {
		t.Fatalf("GET: %q", got)
	}
	// The increment must not have turned the entry persistent.
	ttl := c.roundTrip("TTL n")
	if !strings.HasPrefix(ttl, "TTL ") || ttl == "TTL -1" {
		t.Fatalf("TTL after INCR: got %q, want a finite TTL", ttl)
	}

	// In a transaction a counter keeps the expiry its key has there: the
	// TTL a queued SETEX gave it, none after a queued DEL.
	for _, tc := range []struct {
		key, first string
		finite     bool
	}{{"m", "SETEX m 60000 5", true}, {"n", "DEL n", false}} {
		for _, req := range []string{"MULTI", tc.first, "INCR " + tc.key, "EXEC"} {
			c.roundTrip(req)
		}
		c.readLine()
		c.readLine()
		if ttl := c.roundTrip("TTL " + tc.key); (ttl != "TTL -1") != tc.finite || !strings.HasPrefix(ttl, "TTL ") {
			t.Errorf("TTL after MULTI, %s, INCR %s, EXEC: %q, want a finite TTL: %v", tc.first, tc.key, ttl, tc.finite)
		}
	}
}

func TestCASVerb(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	cases := []struct{ req, want string }{
		{"CAS k old new", "MISS"}, // no entry: nothing to compare
		{"SET k old", "OK"},
		{"CAS k wrong new", "CONFLICT"},
		{"GET k", "VALUE old"},
		{"CAS k old brave new world", "OK"}, // new value is the rest of the line
		{"GET k", "VALUE brave new world"},
		{"CAS k", "ERR wrong number of arguments"},
		{"CAS k a", "ERR wrong number of arguments"},
	}
	for _, tc := range cases {
		if got := c.roundTrip(tc.req); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.req, got, tc.want)
		}
	}
	if got := s.cache.casConflicts.Load(); got != 1 {
		t.Errorf("CAS conflicts = %d, want 1", got)
	}
}

func TestMultiExec(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	if got := c.roundTrip("SET bal 100"); got != "OK" {
		t.Fatalf("SET: %q", got)
	}
	steps := []struct{ req, want string }{
		{"MULTI", "OK"},
		{"MULTI", "ERR MULTI calls cannot be nested"},
		{"INCR bal 5", "QUEUED"},
		{"GET bal", "QUEUED"},
		{"SET note hi", "QUEUED"},
		{"DEL missing", "QUEUED"},
	}
	for _, tc := range steps {
		if got := c.roundTrip(tc.req); got != tc.want {
			t.Fatalf("%s: got %q, want %q", tc.req, got, tc.want)
		}
	}
	if got := c.roundTrip("EXEC"); got != "EXEC 4" {
		t.Fatalf("EXEC header: got %q, want \"EXEC 4\"", got)
	}
	for i, want := range []string{"OK", "VALUE 105", "OK", "MISS"} {
		if got := c.readLine(); got != want {
			t.Fatalf("EXEC result %d: got %q, want %q", i, got, want)
		}
	}
	// The transaction's writes are visible afterwards, and the queue state
	// is gone: a bare EXEC now fails.
	if got := c.roundTrip("GET note"); got != "VALUE hi" {
		t.Fatalf("GET after EXEC: %q", got)
	}
	if got := c.roundTrip("EXEC"); got != "ERR no MULTI in progress" {
		t.Fatalf("bare EXEC: %q", got)
	}
}

func TestMultiDiscard(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	for _, tc := range []struct{ req, want string }{
		{"DISCARD", "ERR no MULTI in progress"},
		{"MULTI", "OK"},
		{"SET k discarded", "QUEUED"},
		{"DISCARD", "OK"},
		{"GET k", "MISS"}, // the queued SET never ran
	} {
		if got := c.roundTrip(tc.req); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.req, got, tc.want)
		}
	}
}

func TestMultiPoisonedByBadOp(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	for _, tc := range []struct{ req, want string }{
		{"MULTI", "OK"},
		{"SET k v", "QUEUED"},
		{"INCR k zebra", "ERR delta must be a signed 64-bit integer"}, // queue-time parse error poisons
		{"SET k2 v2", "ERR transaction aborted by a queue-time error"},
	} {
		if got := c.roundTrip(tc.req); got != tc.want {
			t.Fatalf("%s: got %q, want %q", tc.req, got, tc.want)
		}
	}
	if got := c.roundTrip("EXEC"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("EXEC on poisoned txn: got %q, want ERR", got)
	}
	// Nothing from the partial queue was applied, and the connection is
	// usable again.
	if got := c.roundTrip("GET k"); got != "MISS" {
		t.Fatalf("GET after poisoned EXEC: %q", got)
	}
	if got := c.roundTrip("SET k fresh"); got != "OK" {
		t.Fatalf("SET after poisoned EXEC: %q", got)
	}
}

func TestMultiRejectsAdminVerbs(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	if got := c.roundTrip("MULTI"); got != "OK" {
		t.Fatalf("MULTI: %q", got)
	}
	if got := c.roundTrip("STATS"); got != "ERR command is not allowed inside MULTI" {
		t.Fatalf("STATS in MULTI: %q", got)
	}
	if got := c.roundTrip("EXEC"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("EXEC after admin verb: got %q, want ERR", got)
	}
}

func TestMultiQueueBounded(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	if got := c.roundTrip("MULTI"); got != "OK" {
		t.Fatalf("MULTI: %q", got)
	}
	for i := 0; i < maxTxnOps; i++ {
		if got := c.roundTrip(fmt.Sprintf("INCR k%d", i)); got != "QUEUED" {
			t.Fatalf("op %d: %q", i, got)
		}
	}
	if got := c.roundTrip("INCR overflow"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("op past the cap: got %q, want ERR", got)
	}
	if got := c.roundTrip("EXEC"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("EXEC on over-long txn: got %q, want ERR", got)
	}
}

func TestMultiCASConflictAbortsNothing(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	// A CAS conflict inside EXEC reports CONFLICT for that op; the other
	// ops still apply (per-op results, not all-or-nothing semantics — the
	// atomicity guarantee is isolation, docs/TRANSACTIONS.md).
	for _, tc := range []struct{ req, want string }{
		{"SET k actual", "OK"},
		{"MULTI", "OK"},
		{"CAS k expected new", "QUEUED"},
		{"INCR n 9", "QUEUED"},
	} {
		if got := c.roundTrip(tc.req); got != tc.want {
			t.Fatalf("%s: got %q, want %q", tc.req, got, tc.want)
		}
	}
	if got := c.roundTrip("EXEC"); got != "EXEC 2" {
		t.Fatalf("EXEC header: %q", got)
	}
	if got := c.readLine(); got != "CONFLICT" {
		t.Fatalf("CAS result: %q", got)
	}
	if got := c.readLine(); got != "OK" {
		t.Fatalf("INCR result: %q", got)
	}
	if got := c.roundTrip("GET n"); got != "VALUE 9" {
		t.Fatalf("GET n: %q", got)
	}
}

func TestTxnStatsExposed(t *testing.T) {
	s := startServer(t, Config{TxnPhaseInterval: 10 * time.Millisecond})
	c := dialRaw(t, s)

	for i := 0; i < 5; i++ {
		if got := c.roundTrip("INCR hot"); got != "OK" {
			t.Fatalf("INCR: %q", got)
		}
	}
	c.send("MULTI\nINCR hot\nEXEC\n")
	for _, want := range []string{"OK", "QUEUED", "EXEC 1", "OK"} {
		if got := c.readLine(); got != want {
			t.Fatalf("txn step: got %q, want %q", got, want)
		}
	}

	stats := map[string]string{}
	c.send("STATS\n")
	for {
		line := c.readLine()
		if line == "END" {
			break
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) == 3 && parts[0] == "STAT" {
			stats[parts[1]] = parts[2]
		}
	}
	for _, key := range []string{
		"incrs", "cas_ops", "txn_commits",
		"txn_cas_conflicts", "txn_split_ops", "txn_split_reconciles",
		"txn_split_promotions", "txn_split_demotions", "txn_hot_keys",
	} {
		if _, ok := stats[key]; !ok {
			t.Errorf("STATS missing %q", key)
		}
	}
	if stats["incrs"] == "0" {
		t.Errorf("incrs = 0 after 5 INCRs")
	}
	if stats["txn_commits"] == "0" {
		t.Errorf("txn_commits = 0 after one EXEC")
	}
}

// TestExecEvictsOnFullCache pins the full-cache repair contract: the
// commit itself cannot evict while holding the transaction's stripes, so
// a write that finds its shard full is re-applied afterwards on the
// direct evict-and-retry path (safe: SET is blind, INCR/MAXUPDATE are
// commutative) — transactional writes on fresh keys succeed like direct
// ones instead of erroring with "shard full".
func TestExecEvictsOnFullCache(t *testing.T) {
	c, err := NewCache(1, 1<<8)
	if err != nil {
		t.Fatal(err)
	}
	// Fill to capacity: Set's own evict-retry keeps every insert landing.
	// An insert that had to escalate evicts more entries than it adds, so
	// a fixed Cap() inserts can end well short of full (about one run in
	// eight did); keep inserting until at most two buckets' worth is free.
	for i := uint64(0); i < c.Cap() || c.Cap()-c.Len() > 8; i++ {
		if i > 64*c.Cap() {
			t.Fatalf("cache never filled: %d free of %d", c.Cap()-c.Len(), c.Cap())
		}
		if err := c.Set(fmt.Sprintf("fill%d", i), "x", 0); err != nil {
			t.Fatalf("fill Set %d: %v", i, err)
		}
	}
	// The table is within eight slots of full, so one EXEC of two fresh
	// keys can still find room by luck; a few dozen cannot. Every one of
	// them must succeed, and by the time the loop ends one had to evict.
	evicted := c.Stats().Evictions()
	var counter, value string
	for n := 0; n < 64 && c.Stats().Evictions() == evicted; n++ {
		counter, value = fmt.Sprintf("fresh-counter%d", n), fmt.Sprintf("fresh-value%d", n)
		res := c.Exec([]Op{
			{Kind: OpIncr, Key: counter, Delta: 7},
			{Kind: OpSet, Key: value, Val: "v"},
		}, nil)
		for i, r := range res {
			if r.Status != StatusOK {
				t.Fatalf("EXEC %d op %d on full cache: status %d err %q", n, i, r.Status, r.Err)
			}
		}
	}
	if got := c.Stats().Evictions(); got <= evicted {
		t.Errorf("expected pre-evictions, counter stayed at %d", got)
	}
	if v, ok := c.Get(counter); !ok || v != "7" {
		t.Errorf("%s = %q, %v; want \"7\", true", counter, v, ok)
	}
	if v, ok := c.Get(value); !ok || v != "v" {
		t.Errorf("%s = %q, %v; want \"v\", true", value, v, ok)
	}
}
