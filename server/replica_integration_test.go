package server

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// startReplicatedPair launches two servers mirroring to each other over
// a two-node ring and returns them with their resolved addresses.
func startReplicatedPair(t *testing.T, seed uint64) (a, b *Server) {
	t.Helper()
	a = startServer(t, Config{Shards: 2, SlotsPerShard: 1 << 10, SweepInterval: -1})
	b = startServer(t, Config{Shards: 2, SlotsPerShard: 1 << 10, SweepInterval: -1})
	nodes := []string{a.Addr().String(), b.Addr().String()}
	if err := a.EnableReplication(nodes, seed, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.EnableReplication(nodes, seed, ""); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// waitGetV polls GETV key on c until the reply satisfies ok, failing
// the test after two seconds. It returns the final reply line.
func waitGetV(t *testing.T, c *rawClient, key string, ok func(string) bool) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var line string
	for {
		c.send("GETV " + key + "\n")
		line = c.readLine()
		if ok(line) {
			return line
		}
		if time.Now().After(deadline) {
			t.Fatalf("GETV %s never converged; last reply %q", key, line)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationMirrorsWrites checks the tentpole end to end: writes
// accepted by one node of a two-node ring appear on the other with the
// same version word, and deletes propagate as versioned tombstones.
func TestReplicationMirrorsWrites(t *testing.T) {
	a, b := startReplicatedPair(t, 1)
	ca, cb := dialRaw(t, a), dialRaw(t, b)

	const n = 50
	vers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("mirror%d", i)
		ca.send(fmt.Sprintf("SETV %s 0 val%d\n", key, i))
		rep := ca.readLine()
		var ver uint64
		if _, err := fmt.Sscanf(rep, "VER %d", &ver); err != nil || ver == 0 {
			t.Fatalf("SETV reply %q", rep)
		}
		vers[key] = rep[len("VER "):]
	}
	// Every key's alternate on a two-node ring is the other node, so all
	// fifty copies must converge on b with their origin version words.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("mirror%d", i)
		want := "VALUEV " + vers[key] + " " + fmt.Sprintf("val%d", i)
		got := waitGetV(t, cb, key, func(line string) bool { return line == want })
		if got != want {
			t.Fatalf("replica read %q, want %q", got, want)
		}
	}
	if d := a.ReplQueueDepth(); d != 0 {
		t.Fatalf("mirror log still holds %d entries after convergence", d)
	}

	// A delete on the origin becomes a tombstone on the replica.
	ca.send("DEL mirror0\n")
	if rep := ca.readLine(); rep != "OK" {
		t.Fatalf("DEL reply %q", rep)
	}
	waitGetV(t, cb, "mirror0", func(line string) bool { return line == "MISS" })
}

// TestReplicationConvergesBothDirections writes interleaved keys to both
// nodes and expects the union everywhere: the mirror is symmetric.
func TestReplicationConvergesBothDirections(t *testing.T) {
	a, b := startReplicatedPair(t, 7)
	ca, cb := dialRaw(t, a), dialRaw(t, b)
	for i := 0; i < 20; i++ {
		origin, key := ca, fmt.Sprintf("both%d", i)
		if i%2 == 1 {
			origin = cb
		}
		origin.send(fmt.Sprintf("SETV %s 0 v%d\n", key, i))
		if rep := origin.readLine(); !strings.HasPrefix(rep, "VER ") {
			t.Fatalf("SETV reply %q", rep)
		}
	}
	for i := 0; i < 20; i++ {
		key, val := fmt.Sprintf("both%d", i), fmt.Sprintf("v%d", i)
		match := func(line string) bool {
			return strings.HasPrefix(line, "VALUEV ") && strings.HasSuffix(line, " "+val)
		}
		waitGetV(t, ca, key, match)
		waitGetV(t, cb, key, match)
	}
}

// TestReplicaApplyStaleDrop pins the last-writer-wins contract of the
// inbound mirror verbs: an older REPLSET/REPLDEL never clobbers a newer
// local copy, and the reply says which way it went.
func TestReplicaApplyStaleDrop(t *testing.T) {
	s := startServer(t, Config{Shards: 1, SlotsPerShard: 1 << 10, SweepInterval: -1})
	c := dialRaw(t, s)

	steps := []struct{ send, want string }{
		{"REPLSET k 100 0 fresh", "OK"},
		{"REPLSET k 50 0 older", "STALE"},       // stale mirror write dropped
		{"GETV k", "VALUEV 100 fresh"},          // the newer copy survived
		{"REPLSET k 100 0 redelivery", "STALE"}, // equal version = redelivery, idempotent
		{"GETV k", "VALUEV 100 fresh"},
		{"REPLDEL k 50", "STALE"}, // stale tombstone dropped
		{"GETV k", "VALUEV 100 fresh"},
		{"REPLDEL k 100", "OK"}, // equal-version tombstone wins
		{"GETV k", "MISS"},
		{"REPLDEL k 100", "OK"}, // deleting an absent key is idempotent
		{"REPLSET k 200 0 back", "OK"},
		{"GETV k", "VALUEV 200 back"},
	}
	for _, st := range steps {
		c.send(st.send + "\n")
		if got := c.readLine(); got != st.want {
			t.Fatalf("%s → %q, want %q", st.send, got, st.want)
		}
	}
}

// TestReplicaSetOrdersLocalWrites checks the version-clock ratchet: a
// local write issued after a replica apply must order above it.
func TestReplicaSetOrdersLocalWrites(t *testing.T) {
	s := startServer(t, Config{Shards: 1, SlotsPerShard: 1 << 10, SweepInterval: -1})
	c := dialRaw(t, s)
	// A replica write far in the "future" of this node's clock.
	future := uint64(time.Now().Add(time.Hour).UnixNano())
	c.send(fmt.Sprintf("REPLSET k %d 0 remote\n", future))
	if got := c.readLine(); got != "OK" {
		t.Fatalf("REPLSET reply %q", got)
	}
	c.send("SETV k 0 local\n")
	rep := c.readLine()
	var ver uint64
	if _, err := fmt.Sscanf(rep, "VER %d", &ver); err != nil {
		t.Fatalf("SETV reply %q", rep)
	}
	if ver <= future {
		t.Fatalf("local write version %d does not order above applied replica version %d", ver, future)
	}
}

// TestLeaseProtocol drives the LEASE/SETL anti-herd state machine over
// the wire: one winner fills, losers get back-off hints, late and
// invalidated fills are rejected, and expired entries serve stale.
func TestLeaseProtocol(t *testing.T) {
	s := startServer(t, Config{Shards: 1, SlotsPerShard: 1 << 10, SweepInterval: -1})
	c1, c2 := dialRaw(t, s), dialRaw(t, s)

	// Miss: first LEASE wins a token, second gets a WAIT hint.
	c1.send("LEASE k\n")
	grant := c1.readLine()
	var token string
	var ttlMS int64
	if _, err := fmt.Sscanf(grant, "LEASE %s %d", &token, &ttlMS); err != nil || ttlMS <= 0 {
		t.Fatalf("first LEASE reply %q", grant)
	}
	c2.send("LEASE k\n")
	if rep := c2.readLine(); !strings.HasPrefix(rep, "WAIT ") {
		t.Fatalf("second LEASE reply %q, want WAIT hint", rep)
	}

	// The winner fills; waiters then read the filled value.
	c1.send("SETL k " + token + " 0 filled\n")
	fill := c1.readLine()
	if !strings.HasPrefix(fill, "VER ") {
		t.Fatalf("SETL reply %q", fill)
	}
	c2.send("LEASE k\n")
	if rep := c2.readLine(); rep != "VALUEV "+fill[len("VER "):]+" filled" {
		t.Fatalf("post-fill LEASE reply %q", rep)
	}

	// A fill with the wrong token is rejected and stores nothing.
	c1.send("LEASE k2\n")
	if _, err := fmt.Sscanf(c1.readLine(), "LEASE %s %d", &token, &ttlMS); err != nil {
		t.Fatal("second grant failed")
	}
	c1.send("SETL k2 abc123 0 bogus\n")
	if rep := c1.readLine(); rep != "MISS" {
		t.Fatalf("wrong-token SETL reply %q, want MISS", rep)
	}
	c1.send("GET k2\n")
	if rep := c1.readLine(); rep != "MISS" {
		t.Fatalf("rejected fill stored a value: %q", rep)
	}

	// A write racing the lease invalidates it: the late fill loses.
	c1.send("LEASE k3\n")
	if _, err := fmt.Sscanf(c1.readLine(), "LEASE %s %d", &token, &ttlMS); err != nil {
		t.Fatal("third grant failed")
	}
	c2.send("SET k3 racing\n")
	if rep := c2.readLine(); rep != "OK" {
		t.Fatalf("SET reply %q", rep)
	}
	c1.send("SETL k3 " + token + " 0 late\n")
	if rep := c1.readLine(); rep != "MISS" {
		t.Fatalf("late SETL reply %q, want MISS", rep)
	}
	c1.send("GET k3\n")
	if rep := c1.readLine(); rep != "VALUE racing" {
		t.Fatalf("k3 = %q, want the racing write", rep)
	}

	// Expired-but-present entries: the winner refreshes, others serve stale.
	c1.send("SETEX k4 1 oldcopy\n")
	if rep := c1.readLine(); rep != "OK" {
		t.Fatalf("SETEX reply %q", rep)
	}
	time.Sleep(5 * time.Millisecond) // let the 1ms TTL lapse
	c1.send("LEASE k4\n")
	if rep := c1.readLine(); !strings.HasPrefix(rep, "LEASE ") {
		t.Fatalf("expired-entry LEASE reply %q, want a grant", rep)
	}
	c2.send("LEASE k4\n")
	if rep := c2.readLine(); !strings.HasPrefix(rep, "STALE ") || !strings.HasSuffix(rep, " oldcopy") {
		t.Fatalf("expired-entry follower reply %q, want STALE …oldcopy", rep)
	}
}

// TestLeaseInvalidatedByEveryWrite pins the single post-write step: any
// acknowledged mutation — not just SET/DEL — kills the key's outstanding
// fill lease, so a slow filler's SETL is rejected and the newer value
// survives. Before the write paths were merged, lease invalidation was
// hand-placed per verb and every case below overwrote an acknowledged
// write with the stale fill.
func TestLeaseInvalidatedByEveryWrite(t *testing.T) {
	s := startServer(t, Config{Shards: 1, SlotsPerShard: 1 << 10, SweepInterval: -1})
	filler, writer := dialRaw(t, s), dialRaw(t, s)

	for _, tc := range []struct {
		name   string
		setup  []string // request lines run before the lease is granted
		writes []string // request lines; the last reply must not be ERR
		// handoff, when set, is the write instead: a HANDOFF frame carrying
		// the key with this value at a fresh version, as a bulk catch-up or
		// a MIGRATE from the key's other node would send it.
		handoff string
		want    string // GET reply once the stale fill has been refused
	}{
		{name: "SET", writes: []string{"SET %s fresh"}, want: "VALUE fresh"},
		{name: "DEL", setup: []string{"SET %s a"}, writes: []string{"DEL %s"}, want: "MISS"},
		{name: "CAS", setup: []string{"SET %s a"}, writes: []string{"CAS %s a b"}, want: "VALUE b"},
		{name: "INCR", writes: []string{"INCR %s 5"}, want: "VALUE 5"},
		{name: "DECR", writes: []string{"DECR %s 2"}, want: "VALUE -2"},
		{name: "ADD", writes: []string{"ADD %s 7"}, want: "VALUE 7"},
		{name: "MAXUPDATE", writes: []string{"MAXUPDATE %s 9"}, want: "VALUE 9"},
		{name: "MULTI-SET-EXEC", writes: []string{"MULTI", "SET %s committed", "EXEC"}, want: "VALUE committed"},
		{name: "MULTI-INCR-EXEC", writes: []string{"MULTI", "INCR %s 3", "EXEC"}, want: "VALUE 3"},
		{name: "REPLSET", writes: []string{"REPLSET %s %v 0 mirrored"}, want: "VALUE mirrored"},
		{name: "REPLDEL", setup: []string{"SET %s a"}, writes: []string{"REPLDEL %s %v"}, want: "MISS"},
		{name: "HANDOFF", handoff: "handed-off", want: "VALUE handed-off"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := "lease-" + tc.name
			run := func(lines []string) {
				// %v is a version newer than anything this node has issued.
				ver := fmt.Sprint(time.Now().Add(time.Second).UnixNano())
				for _, line := range lines {
					line = strings.NewReplacer("%s", key, "%v", ver).Replace(line)
					rep := writer.roundTrip(line)
					if strings.HasPrefix(rep, "EXEC ") {
						rep = writer.readLine() // the one queued op's result
					}
					if rep != "OK" && rep != "QUEUED" {
						t.Fatalf("%q replied %q", line, rep)
					}
				}
			}
			run(tc.setup)
			// A missing key's lease is granted over the wire; a live key
			// answers LEASE with its value, so there the grant is taken from
			// the lease table directly (a filler whose LEASE raced the setup
			// write holds exactly this token).
			var token string
			if len(tc.setup) == 0 {
				var ttlMS int64
				if _, err := fmt.Sscanf(filler.roundTrip("LEASE "+key), "LEASE %s %d", &token, &ttlMS); err != nil {
					t.Fatalf("LEASE on a missing key was not granted: %v", err)
				}
			} else {
				tok, granted, _ := s.cache.leases.Acquire(key, time.Now().UnixNano())
				if !granted {
					t.Fatal("lease table refused the first grant")
				}
				token = fmt.Sprintf("%x", tok)
			}
			run(tc.writes)
			if tc.handoff != "" {
				var buf bytes.Buffer
				enc := newSnapEncoder(&buf)
				enc.add(newItem(uint64(time.Now().UnixNano()), 0, key, tc.handoff))
				if err := enc.finish(); err != nil {
					t.Fatal(err)
				}
				writer.send(fmt.Sprintf("HANDOFF %d\n%s", buf.Len(), buf.Bytes()))
				if rep := writer.readLine(); rep != "HANDOFF 1" {
					t.Fatalf("HANDOFF replied %q", rep)
				}
			}
			if rep := filler.roundTrip("SETL " + key + " " + token + " 0 old"); rep != "MISS" {
				t.Errorf("stale fill after an acknowledged %s replied %q, want MISS", tc.name, rep)
			}
			if rep := filler.roundTrip("GET " + key); rep != tc.want {
				t.Errorf("GET after the refused fill = %q, want %q", rep, tc.want)
			}
		})
	}
}

// TestSetVRepliesItsOwnVersion hammers SETV on one 64-slot shard from
// several connections, so entries are evicted and overwritten by other
// writers all the time. Every successful SETV must acknowledge with the
// version its own write stored: never 0 (the old read-back found the
// entry already evicted), strictly increasing per connection, and never
// a version another connection was also told (the old read-back could
// report a concurrent writer's later store).
func TestSetVRepliesItsOwnVersion(t *testing.T) {
	s := startServer(t, Config{Shards: 1, SlotsPerShard: 64, SweepInterval: -1})
	const conns, rounds, depth = 6, 60, 32
	vers := make([][]uint64, conns)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		c := dialRaw(t, s)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var batch strings.Builder
			for r := 0; r < rounds; r++ {
				batch.Reset()
				for d := 0; d < depth; d++ {
					// Half the keys are shared across connections (same-key
					// races), half are this connection's own (eviction churn).
					n := r*depth + d
					key := fmt.Sprintf("shared%d", n%16)
					if d%2 == 1 {
						key = fmt.Sprintf("c%d-%d", ci, n)
					}
					fmt.Fprintf(&batch, "SETV %s 0 v%d\n", key, n)
				}
				c.send(batch.String())
				for d := 0; d < depth; d++ {
					rep := c.readLine()
					if strings.HasPrefix(rep, "ERR ") {
						continue // cache full: not acknowledged, nothing to check
					}
					var ver uint64
					if _, err := fmt.Sscanf(rep, "VER %d", &ver); err != nil {
						t.Errorf("conn %d: SETV replied %q", ci, rep)
						return
					}
					vers[ci] = append(vers[ci], ver)
				}
			}
		}(ci)
	}
	wg.Wait()

	owner := make(map[uint64]int)
	for ci, vs := range vers {
		if len(vs) < rounds*depth/2 {
			t.Errorf("conn %d: only %d of %d SETVs acknowledged", ci, len(vs), rounds*depth)
		}
		for i, v := range vs {
			if v == 0 {
				t.Fatalf("conn %d: SETV #%d acknowledged VER 0", ci, i)
			}
			if i > 0 && v <= vs[i-1] {
				t.Fatalf("conn %d: VER went %d -> %d, want strictly increasing", ci, vs[i-1], v)
			}
			if prev, dup := owner[v]; dup {
				t.Fatalf("VER %d acknowledged to both conn %d and conn %d", v, prev, ci)
			}
			owner[v] = ci
		}
	}
}
