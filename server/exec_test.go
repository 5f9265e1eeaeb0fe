package server

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"cuckoohash/internal/cluster"
	"cuckoohash/internal/replica"
)

// keyOnShard returns the first of prefix0, prefix1, ... on shard si of c
// (or, with same false, on any other shard).
func keyOnShard(c *Cache, prefix string, si int, same bool) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		if (c.shardFor(k) == si) == same {
			return k
		}
	}
}

// TestExecOrderedCommit checks Exec's one commit path: its results and
// writes are those of the same ops run one after another; it does not
// deadlock against a committer of keys on the same shards in the opposite
// order; and a read-only transaction beside concurrent transfers always
// sees their invariant sum.
func TestExecOrderedCommit(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		rounds := 1
		if concurrent {
			rounds = 50
		}
		for range rounds {
			checkExec(t, concurrent)
		}
	}
	checkSnapshot(t)
}

// newExecCache is a two-shard cache small enough that keys share stripes.
func newExecCache(t *testing.T) *Cache {
	t.Helper()
	c, err := NewCache(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkExec(t *testing.T, concurrent bool) {
	t.Helper()
	c := newExecCache(t)
	// a and b live on different shards, so the commit takes two sections.
	sa := c.shardFor("a")
	b := keyOnShard(c, "b", sa, false)
	seed := map[string]string{"a": "1", b: "2", "d": "x"}
	for k, v := range seed {
		if err := c.Set(k, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	ops := []Op{
		{Kind: OpGet, Key: "a"},
		{Kind: OpGet, Key: b},
		{Kind: OpIncr, Key: "a", Delta: 5},
		{Kind: OpCAS, Key: b, Old: "2", Val: "3"},
		{Kind: OpSet, Key: "c", Val: "new"},
		{Kind: OpDel, Key: "d"},
		{Kind: OpMax, Key: "e", Delta: 9},
		{Kind: OpGet, Key: "a"},
	}

	// The committer's keys share a's and b's shards, queued in the
	// opposite order, so its commits take the sections this transaction
	// takes; a commit that took them in queue order would deadlock.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits uint64
	x, y := keyOnShard(c, "x", sa, true), keyOnShard(c, "y", c.shardFor(b), true)
	if concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Exec([]Op{{Kind: OpIncr, Key: y, Delta: 1}, {Kind: OpIncr, Key: x, Delta: 1}}, nil)
				commits++
			}
		}()
	}
	res := c.Exec(ops, nil)
	close(stop)
	wg.Wait()
	for _, k := range []string{x, y} {
		if got, _ := c.Get(k); commits > 0 && got != strconv.FormatUint(commits, 10) {
			t.Fatalf("%s = %q after %d committed increments", k, got, commits)
		}
	}

	// The model: the same ops one at a time, from the same seed.
	model := newExecCache(t)
	for k, v := range seed {
		if err := model.Set(k, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ops {
		want := model.Exec(ops[i:i+1], nil)
		if res[i] != want[0] {
			t.Fatalf("op %d (%+v): transaction %+v, one at a time %+v", i, ops[i], res[i], want[0])
		}
	}
	for _, k := range []string{"a", b, "c", "d", "e"} {
		got, gok := c.Get(k)
		want, wok := model.Get(k)
		if got != want || gok != wok {
			t.Fatalf("%s = %q (%v) after the transaction, %q (%v) one at a time", k, got, gok, want, wok)
		}
	}
}

// checkSnapshot runs read-only EXECs of GET x, GET y, keys of two shards,
// while two goroutines transfer between x and y: every read must see x+y
// unchanged.
func checkSnapshot(t *testing.T) {
	t.Helper()
	c := newExecCache(t)
	x := "x"
	y := keyOnShard(c, "y", c.shardFor(x), false)
	for _, k := range []string{x, y} {
		if err := c.Set(k, "1000", 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var writing atomic.Int32
	for _, d := range []int64{-1, 1} {
		wg.Add(1)
		writing.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Add(-1)
			for range 2000 {
				c.Exec([]Op{{Kind: OpIncr, Key: x, Delta: -d}, {Kind: OpIncr, Key: y, Delta: d}}, nil)
			}
		}()
	}
	for n := 0; n == 0 || writing.Load() > 0; n++ {
		res := c.Exec([]Op{{Kind: OpGet, Key: x}, {Kind: OpGet, Key: y}}, nil)
		vx, _ := strconv.Atoi(res[0].Value)
		vy, _ := strconv.Atoi(res[1].Value)
		if vx+vy != 2000 {
			t.Fatalf("read %d: x=%d y=%d, sum %d, want 2000", n, vx, vy, vx+vy)
		}
	}
	wg.Wait()
}

// TestExecExcludesSingleKeyWrites races a SET of strictly rising markers
// (i·10⁶) against two goroutines that INCR the same key inside EXEC. EXEC
// holds the key's pin from its load to its write, so an INCR always lands
// on the value it loaded: the marker a goroutine reads back never falls,
// and the key ends on the last SET's marker.
func TestExecExcludesSingleKeyWrites(t *testing.T) {
	const marker, sets int64 = 1_000_000, 20000
	c, err := NewCache(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", "0", 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := int64(0)
			for !done.Load() {
				res := c.Exec([]Op{{Kind: OpIncr, Key: "k", Delta: 1}, {Kind: OpGet, Key: "k"}}, nil)
				n, err := strconv.ParseInt(res[1].Value, 10, 64)
				if err != nil {
					t.Errorf("EXEC read %+v", res)
					return
				}
				if n/marker < seen {
					t.Errorf("marker fell from %d to %d (value %d): an EXEC wrote over a SET it did not load", seen, n/marker, n)
					return
				}
				seen = n / marker
			}
		}()
	}
	for i := int64(1); i <= sets; i++ {
		if err := c.Set("k", strconv.FormatInt(i*marker, 10), 0); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	v, _ := c.Get("k")
	if n, _ := strconv.ParseInt(v, 10, 64); n/marker != sets {
		t.Fatalf("k = %s after the last SET of %d: its marker is %d", v, sets*marker, n/marker)
	}
}

// TestMirrorOrderMatchesApply races SET and DEL on a primary's keys and
// then replays the primary's mirror log, in order, onto a replica: the
// replica must match the primary key for key. The log carries each
// applied write once, appended under the pin that applied it — a DEL's
// tombstone version issued there too — so a key's entries are in apply
// order, which their versions, issued in apply order, show. A race shows
// in some rounds only, so there are several.
func TestMirrorOrderMatchesApply(t *testing.T) {
	for range 5 {
		mirrorRound(t)
	}
}

func mirrorRound(t *testing.T) {
	t.Helper()
	primary, err := NewCache(2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	replicaCache, err := NewCache(2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []string{"primary:1", "replica:1"}
	ring, err := cluster.New(nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	peer := &replPeer{addr: nodes[1], log: replica.NewLog(replLogCap), wake: make(chan struct{}, 1)}
	primary.repl = &replState{ring: ring, self: nodes[0], selfIdx: ring.Index(nodes[0]), peers: make([]*replPeer, 2)}
	primary.repl.peers[ring.Index(nodes[1])] = peer

	// Both writers take the keys in the same order, so they meet on each.
	const keys, perWriter = 2, 3500
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				k := fmt.Sprintf("m%d", i%keys)
				if (i/keys+w)%3 == 0 {
					primary.Delete(k, nil)
				} else if err := primary.Set(k, fmt.Sprintf("w%d-%d", w, i), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peer.log.TakeOverflow() {
		t.Fatal("mirror log overflowed; the replay would be incomplete")
	}
	last := make(map[string]uint64)
	for _, e := range peer.log.Drain(nil, replLogCap) {
		if e.Ver <= last[e.Key] {
			t.Fatalf("%s: mirror entry of version %d after one of %d: the log is not in apply order", e.Key, e.Ver, last[e.Key])
		}
		last[e.Key] = e.Ver
		if e.Del {
			replicaCache.applyReplicaDel(e.Key, e.Ver, nil)
		} else if _, err := replicaCache.applyReplicaSet([]byte(e.Key), []byte(e.Val), e.ExpireAt, e.Ver, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range keys {
		k := fmt.Sprintf("m%d", i)
		pv, pok := primary.Get(k)
		rv, rok := replicaCache.Get(k)
		if pv != rv || pok != rok {
			t.Errorf("%s: primary %q (%v), replica %q (%v) after the mirror drained", k, pv, pok, rv, rok)
		}
	}
}

// TestBlindWriteDropsSplitDeltas checks that a SET or DEL of a split
// counter replaces the deltas pending on it: a later fold must not add
// them back.
func TestBlindWriteDropsSplitDeltas(t *testing.T) {
	c, err := NewCache(2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		write func(key string) error
		want  string
		found bool
	}{
		{"SET", func(key string) error { return c.Set(key, "100", 0) }, "100", true},
		{"DEL", func(key string) error {
			if !c.Delete(key, nil) {
				return fmt.Errorf("DEL of a counter with pending deltas found nothing")
			}
			return nil
		}, "", false},
	} {
		key := "ctr-" + tc.name
		if !c.split.promote(key) {
			t.Fatalf("%s: %s was already split", tc.name, key)
		}
		for range 5 {
			if err := c.Incr(key, 1, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := tc.write(key); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c.reconcileAll()
		if v, ok := c.Get(key); v != tc.want || ok != tc.found {
			t.Errorf("%s over 5 pending INCRs, then a fold: GET = %q, %v; want %q, %v", tc.name, v, ok, tc.want, tc.found)
		}
	}
}

// TestExecAllOrNothingAtCapacity: an EXEC of many new keys on a full
// shard makes room until every one of them lands, and one of more new
// keys than the shard has slots writes none of them and reports every SET
// as failed.
func TestExecAllOrNothingAtCapacity(t *testing.T) {
	for _, tc := range []struct{ slots, keys int }{{1024, 40}, {64, 100}} {
		c, err := NewCache(1, uint64(tc.slots))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < c.Cap() || c.Cap()-c.Len() > 8; i++ {
			if i > 64*c.Cap() {
				t.Fatalf("cache never filled: %d free of %d", c.Cap()-c.Len(), c.Cap())
			}
			if err := c.Set(fmt.Sprintf("fill%d", i), "x", 0); err != nil {
				t.Fatal(err)
			}
		}
		ops := make([]Op, tc.keys)
		for i := range ops {
			ops[i] = Op{Kind: OpSet, Key: fmt.Sprintf("new%d", i), Val: "v"}
		}
		res := c.Exec(ops, nil)
		stored := 0
		for i := range ops {
			if _, ok := c.Get(ops[i].Key); ok != (res[i].Status == StatusOK) {
				t.Fatalf("EXEC of %d new keys: %s is present %v with result %+v", tc.keys, ops[i].Key, ok, res[i])
			} else if ok {
				stored++
			}
		}
		if want := tc.keys <= tc.slots; stored != 0 && stored != tc.keys || (stored == tc.keys) != want {
			t.Errorf("EXEC of %d new keys on a full %d-slot shard stored %d of them", tc.keys, tc.slots, stored)
		}
	}
}
