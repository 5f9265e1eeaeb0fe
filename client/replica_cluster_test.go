package client_test

// End-to-end staleness contract of cuckoorepl (docs/REPLICATION.md):
// the per-key version floor makes two-choice fallthrough reads
// monotonic even when the replica lags and the primary then dies.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cuckoohash/client"
	"cuckoohash/internal/cluster"
)

// replInject writes one raw protocol line to addr and returns the reply
// — the test's stand-in for a lagging mirror stream delivering an old
// REPLSET to the replica.
func replInject(t *testing.T, addr, line string) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := fmt.Fprintf(nc, "%s\n", line); err != nil {
		t.Fatal(err)
	}
	rep, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(rep, "\n")
}

// TestClusterMonotonicReads pins the acceptance criterion: a replica
// holding an older version than a write this client already observed
// must never shadow it, even across a primary kill and fallthrough.
func TestClusterMonotonicReads(t *testing.T) {
	// A traced operation is the same path with an ID: the floor binds it
	// exactly as it binds the plain one.
	id := client.NewTraceID()
	t.Run("plain", func(t *testing.T) {
		testMonotonicReads(t, (*client.Cluster).Set, (*client.Cluster).Get)
	})
	t.Run("traced", func(t *testing.T) {
		testMonotonicReads(t,
			func(cl *client.Cluster, k, v string, ttl time.Duration) error { return cl.SetTraced(k, v, ttl, id) },
			func(cl *client.Cluster, k string) (string, bool, error) { return cl.GetTraced(k, id) })
	})
}

func testMonotonicReads(t *testing.T,
	set func(cl *client.Cluster, key, val string, ttl time.Duration) error,
	get func(cl *client.Cluster, key string) (string, bool, error)) {
	const seed = 21
	servers, addrs := startNodes(t, 2)
	ring, err := cluster.New(addrs, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a key whose primary is node 0, so node 1 is the replica.
	key := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("mono%d", i)
		if pi, _ := ring.Candidates(k); pi == 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key with primary 0 in 64 tries")
	}

	// The replica holds a lagging copy: version 5, written directly as a
	// mirror apply (replication is off, so nothing will repair it).
	if rep := replInject(t, addrs[1], "REPLSET "+key+" 5 0 laggard"); rep != "OK" {
		t.Fatalf("stale inject reply %q", rep)
	}

	cl := newTestCluster(t, addrs, seed)
	// The client writes through the primary; the SETV ack version (an
	// HLC word far above 5) becomes this client's floor for the key.
	if err := set(cl, key, "fresh", 0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := get(cl, key); err != nil || !ok || v != "fresh" {
		t.Fatalf("pre-kill Get = %q/%v/%v", v, ok, err)
	}

	// Kill the primary. The only live copy is the laggard on node 1.
	servers[0].Close()
	v, ok, _ := get(cl, key)
	if ok || v == "laggard" {
		t.Fatalf("fallthrough served the stale replica copy: %q/%v", v, ok)
	}

	// Sanity 1: the replica really does hold and serve the old copy.
	if rep := replInject(t, addrs[1], "GETV "+key); rep != "VALUEV 5 laggard" {
		t.Fatalf("replica copy = %q, want VALUEV 5 laggard", rep)
	}
	// Sanity 2: a fresh client with no version memory accepts it — the
	// floor, not the routing, is what rejected the read above.
	cl2 := newTestCluster(t, addrs, seed)
	if v, ok, err := get(cl2, key); err != nil || !ok || v != "laggard" {
		t.Fatalf("fresh client Get = %q/%v/%v, want the replica copy", v, ok, err)
	}
}
