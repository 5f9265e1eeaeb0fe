package server

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"cuckoohash/internal/cluster"
)

// readClusterLines reads a CLUSTER response into a map.
func readClusterLines(t *testing.T, c *rawClient) map[string]string {
	t.Helper()
	out := map[string]string{}
	for {
		line := c.readLine()
		if line == "END" {
			return out
		}
		rest, ok := strings.CutPrefix(line, "CLUSTER ")
		if !ok {
			t.Fatalf("unexpected CLUSTER response line %q", line)
		}
		name, value, ok := strings.Cut(rest, " ")
		if !ok {
			t.Fatalf("malformed CLUSTER line %q", line)
		}
		out[name] = value
	}
}

func TestClusterVerb(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	if got := c.roundTrip("SET k1 v1"); got != "OK" {
		t.Fatalf("SET -> %q", got)
	}
	c.send("CLUSTER\n")
	info := readClusterLines(t, c)

	if info["addr"] != s.Addr().String() {
		t.Errorf("addr = %q, want %q", info["addr"], s.Addr())
	}
	if info["entries"] != "1" {
		t.Errorf("entries = %q, want 1", info["entries"])
	}
	load, err := strconv.ParseFloat(info["load"], 64)
	if err != nil || load <= 0 || load > 1 {
		t.Errorf("load = %q, want a fraction in (0, 1]", info["load"])
	}
	for _, k := range []string{"capacity", "migrated_in", "migrated_out", "handoffs", "migrate_failures"} {
		if _, ok := info[k]; !ok {
			t.Errorf("CLUSTER response missing %q", k)
		}
	}

	// CLUSTER takes no arguments.
	if got := c.roundTrip("CLUSTER extra"); got != "ERR wrong number of arguments" {
		t.Errorf("CLUSTER extra -> %q", got)
	}
}

// encodeHandoff builds a snapshot payload for the given key/value pairs.
func encodeHandoff(t *testing.T, kv map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := newSnapEncoder(&buf)
	for k, v := range kv {
		enc.add(newItem(0, 0, k, v))
	}
	if err := enc.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHandoffRoundtrip(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	kv := map[string]string{"alpha": "1", "beta": "2", "gamma": "3"}
	payload := encodeHandoff(t, kv)

	c.send(fmt.Sprintf("HANDOFF %d\n", len(payload)))
	c.send(string(payload))
	if got := c.readLine(); got != fmt.Sprintf("HANDOFF %d", len(kv)) {
		t.Fatalf("HANDOFF reply %q, want HANDOFF %d", got, len(kv))
	}
	for k, v := range kv {
		if got := c.roundTrip("GET " + k); got != "VALUE "+v {
			t.Errorf("GET %s -> %q, want VALUE %s", k, got, v)
		}
	}
	if got := s.cache.stats.migratedIn.Load(); got != uint64(len(kv)) {
		t.Errorf("migrated_in = %d, want %d", got, len(kv))
	}
	if got := s.cache.stats.handoffs.Load(); got != 1 {
		t.Errorf("handoffs = %d, want 1", got)
	}
}

func TestHandoffBadPayloadKeepsConnection(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	// A payload that is the declared length but not a valid snapshot must
	// be rejected without desyncing the stream: the next command still
	// gets a correct response on the same connection.
	junk := []byte("this is not a snapshot stream at all")
	c.send(fmt.Sprintf("HANDOFF %d\n", len(junk)))
	c.send(string(junk))
	if got := c.readLine(); !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("bad handoff reply %q, want ERR", got)
	}
	if got := c.roundTrip("SET still-works yes"); got != "OK" {
		t.Fatalf("post-reject SET -> %q", got)
	}
	if got := s.cache.stats.handoffRejects.Load(); got != 1 {
		t.Errorf("handoff_rejects = %d, want 1", got)
	}
}

func TestHandoffOversizedClosesConnection(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	// A length past the bound is connection-fatal: the bytes behind the
	// line cannot be skipped, so the server answers ERR and closes.
	c.send(fmt.Sprintf("HANDOFF %d\n", handoffMaxBytes+1))
	if got := c.readLine(); !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("oversized handoff reply %q, want ERR", got)
	}
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Error("connection still open after oversized HANDOFF, want closed")
	}
}

// migrateCmd renders a MIGRATE line for a ring built from the servers'
// listen addresses.
func migrateCmd(mode, dest, self string, seed uint64, max int, ring []string) string {
	return fmt.Sprintf("MIGRATE %s %s %s %d %d %s", mode, dest, self, seed, max, strings.Join(ring, ","))
}

func TestMigrateShedBetweenServers(t *testing.T) {
	a := startServer(t, Config{})
	b := startServer(t, Config{})
	addrA, addrB := a.Addr().String(), b.Addr().String()
	ring := []string{addrA, addrB}
	const seed = 42

	ca := dialRaw(t, a)
	const n = 64
	for i := 0; i < n; i++ {
		if got := ca.roundTrip(fmt.Sprintf("SET key%d val%d", i, i)); got != "OK" {
			t.Fatalf("SET key%d -> %q", i, got)
		}
	}

	// With two nodes every key has both as candidates, so shed mode (move
	// correctly-placed keys to their other candidate) moves everything up
	// to max.
	if got := ca.roundTrip(migrateCmd("shed", addrB, addrA, seed, 10, ring)); got != "MIGRATED 10" {
		t.Fatalf("bounded shed -> %q, want MIGRATED 10", got)
	}
	if got := a.cache.Len(); got != n-10 {
		t.Errorf("source entries after bounded shed = %d, want %d", got, n-10)
	}
	if got := b.cache.Len(); got != 10 {
		t.Errorf("dest entries after bounded shed = %d, want 10", got)
	}

	// Unlimited shed drains the rest; every key must remain reachable on B.
	rest := ca.roundTrip(migrateCmd("shed", addrB, addrA, seed, 0, ring))
	if rest != fmt.Sprintf("MIGRATED %d", n-10) {
		t.Fatalf("unbounded shed -> %q, want MIGRATED %d", rest, n-10)
	}
	cb := dialRaw(t, b)
	for i := 0; i < n; i++ {
		if got := cb.roundTrip(fmt.Sprintf("GET key%d", i)); got != fmt.Sprintf("VALUE val%d", i) {
			t.Errorf("GET key%d on dest -> %q", i, got)
		}
	}
	if got, want := a.cache.stats.migratedOut.Load(), uint64(n); got != want {
		t.Errorf("source migrated_out = %d, want %d", got, want)
	}
	if got, want := b.cache.stats.migratedIn.Load(), uint64(n); got != want {
		t.Errorf("dest migrated_in = %d, want %d", got, want)
	}
}

func TestMigrateHomeDrain(t *testing.T) {
	a := startServer(t, Config{})
	b := startServer(t, Config{})
	addrA, addrB := a.Addr().String(), b.Addr().String()
	const seed = 7

	ca := dialRaw(t, a)
	const n = 32
	for i := 0; i < n; i++ {
		if got := ca.roundTrip(fmt.Sprintf("SET dk%d v%d", i, i)); got != "OK" {
			t.Fatalf("SET dk%d -> %q", i, got)
		}
	}

	// Drain: the ring excludes self, so no key belongs here and home mode
	// qualifies everything toward the surviving candidate.
	drainRing := []string{addrB}
	if got := ca.roundTrip(migrateCmd("home", addrB, addrA, seed, 0, drainRing)); got != fmt.Sprintf("MIGRATED %d", n) {
		t.Fatalf("drain -> %q, want MIGRATED %d", got, n)
	}
	if got := a.cache.Len(); got != 0 {
		t.Errorf("source entries after drain = %d, want 0", got)
	}
	cb := dialRaw(t, b)
	for i := 0; i < n; i++ {
		if got := cb.roundTrip(fmt.Sprintf("GET dk%d", i)); got != fmt.Sprintf("VALUE v%d", i) {
			t.Errorf("GET dk%d on survivor -> %q", i, got)
		}
	}
}

func TestMigrateHomeSkipsOwnedKeys(t *testing.T) {
	// Three-node ring, but only the two endpoints are live servers; the
	// third member is a dead placeholder so some keys do not belong on A.
	a := startServer(t, Config{})
	b := startServer(t, Config{})
	addrA, addrB := a.Addr().String(), b.Addr().String()
	ring := []string{addrA, addrB, "203.0.113.1:9999"}
	const seed = 99

	r, err := cluster.New(ring, seed)
	if err != nil {
		t.Fatal(err)
	}

	ca := dialRaw(t, a)
	const n = 300
	wantMove := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("hk%d", i)
		if got := ca.roundTrip("SET " + key + " v"); got != "OK" {
			t.Fatalf("SET %s -> %q", key, got)
		}
		if !r.IsCandidate(key, addrA) && r.IsCandidate(key, addrB) {
			wantMove++
		}
	}
	if wantMove == 0 {
		t.Fatal("test needs at least one key homed away from A toward B")
	}

	got := ca.roundTrip(migrateCmd("home", addrB, addrA, seed, 0, ring))
	if got != fmt.Sprintf("MIGRATED %d", wantMove) {
		t.Errorf("home migrate -> %q, want MIGRATED %d", got, wantMove)
	}
	if gotLen := int(a.cache.Len()); gotLen != n-wantMove {
		t.Errorf("source entries = %d, want %d", gotLen, n-wantMove)
	}
}

func TestMigrateValidation(t *testing.T) {
	a := startServer(t, Config{})
	addrA := a.Addr().String()
	ca := dialRaw(t, a)

	cases := []struct{ req, wantPrefix string }{
		{"MIGRATE shed", "ERR migrate wants:"},
		{"MIGRATE nonsense d s 0 0 r", "ERR migrate wants:"},
		{"MIGRATE shed x:1 " + addrA + " 0 0 " + addrA, "ERR migrate destination is not in the ring"},
		{"MIGRATE shed " + addrA + " " + addrA + " 0 0 " + addrA, "ERR migrate destination equals self"},
	}
	for _, tc := range cases {
		if got := ca.roundTrip(tc.req); !strings.HasPrefix(got, tc.wantPrefix) {
			t.Errorf("%q -> %q, want prefix %q", tc.req, got, tc.wantPrefix)
		}
	}

	// An unreachable destination fails the migrate and bumps the failure
	// counter, but moves nothing.
	if got := ca.roundTrip("SET mk v"); got != "OK" {
		t.Fatal("SET failed")
	}
	dead := "127.0.0.1:1"
	ring := addrA + "," + dead
	if got := ca.roundTrip("MIGRATE shed " + dead + " " + addrA + " 0 0 " + ring); !strings.HasPrefix(got, "ERR ") {
		t.Errorf("migrate to dead node -> %q, want ERR", got)
	}
	if got := a.cache.stats.migrateFails.Load(); got != 1 {
		t.Errorf("migrate_failures = %d, want 1", got)
	}
	if got := ca.roundTrip("GET mk"); got != "VALUE v" {
		t.Errorf("key lost after failed migrate: GET mk -> %q", got)
	}
}

func TestMigrateSkipsExpired(t *testing.T) {
	a := startServer(t, Config{})
	b := startServer(t, Config{})
	addrA, addrB := a.Addr().String(), b.Addr().String()
	ring := []string{addrA, addrB}

	ca := dialRaw(t, a)
	if got := ca.roundTrip("SETEX dying 1 v"); got != "OK" {
		t.Fatal("SETEX failed")
	}
	if got := ca.roundTrip("SET living v"); got != "OK" {
		t.Fatal("SET failed")
	}
	time.Sleep(5 * time.Millisecond) // let the TTL pass

	if got := ca.roundTrip(migrateCmd("shed", addrB, addrA, 1, 0, ring)); got != "MIGRATED 1" {
		t.Errorf("shed with expired entry -> %q, want MIGRATED 1", got)
	}
	cb := dialRaw(t, b)
	if got := cb.roundTrip("GET dying"); got != "MISS" {
		t.Errorf("expired key resurrected on dest: %q", got)
	}
	if got := cb.roundTrip("GET living"); got != "VALUE v" {
		t.Errorf("live key missing on dest: %q", got)
	}
}

// TestMigrateKeepsRefreshedKey: a SET that lands between a migration's
// selection and its post-transfer delete survives the delete even when it
// wrote the same key and the same value bytes — "unchanged" means the same
// write, not equal contents — while a key nobody touched is removed.
func TestMigrateKeepsRefreshedKey(t *testing.T) {
	c, err := NewCache(2, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	key := func(i int) string { return fmt.Sprintf("mk%d", i) }
	for i := range n {
		if err := c.Set(key(i), "same-bytes", 0); err != nil {
			t.Fatal(err)
		}
	}
	// A drain ring: self is absent, so home mode selects every key.
	ring, err := cluster.New([]string{"dest:1"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	recs := c.selectForMigrate(ring, "home", "dest:1", "self:0", 0)
	if len(recs) != n {
		t.Fatalf("selected %d records, want %d", len(recs), n)
	}
	refreshed := make(map[string]bool)
	for i := 0; i < n; i += 2 {
		if err := c.Set(key(i), "same-bytes", 0); err != nil {
			t.Fatal(err)
		}
		refreshed[key(i)] = true
	}
	for _, it := range recs {
		k := it.key()
		if removed := c.removeIfUnchanged(it); removed == refreshed[k] {
			t.Errorf("%s (refreshed %v): removeIfUnchanged = %v", k, refreshed[k], removed)
		}
		if v, ok := c.Get(k); ok != refreshed[k] || (ok && v != "same-bytes") {
			t.Errorf("%s (refreshed %v) after the migration's delete: %q, present %v", k, refreshed[k], v, ok)
		}
	}
	if got := c.Len(); got != n/2 {
		t.Errorf("%d keys left, want the %d refreshed ones", got, n/2)
	}
}
