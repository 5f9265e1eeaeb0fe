package txn

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"cuckoohash/internal/spinlock"
)

// mapKV is a mutex-guarded map backing store for tests. The stripe layer
// above serializes per-key access; the mutex only makes the map itself
// safe for concurrent access across distinct keys.
type mapKV struct {
	mu sync.Mutex
	m  map[string]string
}

func newMapKV() *mapKV { return &mapKV{m: make(map[string]string)} }

func (k *mapKV) Load(key string) (string, int64, bool) {
	v, ok := k.value(key)
	return v, 0, ok
}

// value is key's value, read outside any stripe.
func (k *mapKV) value(key string) (string, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.m[key]
	return v, ok
}

func (k *mapKV) Update(key string, ch Change) (Change, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.m[key]
	switch write, val, _ := ch.Decide(v, 0, ok); write {
	case OpSet:
		k.m[key] = val
	case OpDel:
		delete(k.m, key)
	}
	return ch, nil
}

// Store seeds key with val, as a SET would.
func (k *mapKV) Store(key, val string, _ int64, _ bool) error {
	_, err := k.Update(key, Change{c: cell{val: val, write: OpSet}})
	return err
}

// newStore is New with the promotion threshold lowered to promote
// contended acquisitions, or splitting disabled when promote is negative.
func newStore(kv KV, promote int) *Store {
	s := New(kv)
	s.promoteAfter = promote
	return s
}

func (k *mapKV) get(t *testing.T, key string) string {
	t.Helper()
	v, ok := k.value(key)
	if !ok {
		t.Fatalf("key %q missing", key)
	}
	return v
}

func TestIncrBasics(t *testing.T) {
	kv := newMapKV()
	s := newStore(kv, -1)
	if err := s.Incr("c", 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Incr("c", 41, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := kv.get(t, "c"); got != "42" {
		t.Fatalf("c = %q, want 42", got)
	}
	if err := s.Incr("c", -2, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := kv.get(t, "c"); got != "40" {
		t.Fatalf("c = %q, want 40", got)
	}
	kv.Store("junk", "not-a-number", 0, false)
	if err := s.Incr("junk", 1, 0, nil); err != ErrNotInteger {
		t.Fatalf("Incr on junk = %v, want ErrNotInteger", err)
	}
}

func TestMaxUpdate(t *testing.T) {
	kv := newMapKV()
	s := newStore(kv, -1)
	for _, n := range []int64{5, 3, 9, 7} {
		if err := s.MaxUpdate("m", n, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := kv.get(t, "m"); got != "9" {
		t.Fatalf("m = %q, want 9", got)
	}
}

func TestCAS(t *testing.T) {
	kv := newMapKV()
	s := New(kv)
	if res, _ := s.CAS("k", "a", "b", nil); res != CASMiss {
		t.Fatalf("CAS on missing = %v, want CASMiss", res)
	}
	kv.Store("k", "a", 0, false)
	if res, _ := s.CAS("k", "x", "b", nil); res != CASConflict {
		t.Fatalf("CAS wrong old = %v, want CASConflict", res)
	}
	if res, _ := s.CAS("k", "a", "b", nil); res != CASStored {
		t.Fatalf("CAS matching = %v, want CASStored", res)
	}
	if got := kv.get(t, "k"); got != "b" {
		t.Fatalf("k = %q, want b", got)
	}
	if got := s.StatsSnapshot().CASConflicts; got != 1 {
		t.Fatalf("CASConflicts = %d, want 1", got)
	}
}

func TestConcurrentIncrExact(t *testing.T) {
	// The headline counter-exactness property: G goroutines × N INCRs
	// each, across direct, contended, and split regimes, must sum
	// exactly — no lost or double-applied update. Two regimes: the key
	// promoted up front, so every op races the split/fold machinery; and
	// organic, where promotion happens only when TryLock collisions do
	// (how often is the scheduler's business, so only the sum is asserted).
	const goroutines, perG = 8, 5000
	for _, promoted := range []bool{true, false} {
		kv := newMapKV()
		s := newStore(kv, 1)
		if promoted {
			s.noteContention("hot", classAdd)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < perG; n++ {
					if err := s.Incr("hot", 1, uint64(g), nil); err != nil {
						t.Errorf("Incr: %v", err)
						return
					}
					if n%64 == 0 {
						s.Tick() // interleave phase boundaries with updates
					}
				}
			}(g)
		}
		wg.Wait()
		s.ReconcileAll()
		if got := kv.get(t, "hot"); got != strconv.Itoa(goroutines*perG) {
			t.Fatalf("promoted=%v: hot = %s, want %d", promoted, got, goroutines*perG)
		}
		st := s.StatsSnapshot()
		if promoted && st.SplitOps == 0 {
			t.Fatal("no ops took the split path; promotion never engaged")
		}
		t.Logf("promoted=%v: promotions=%d split ops=%d", promoted, st.Promotions, st.SplitOps)
	}
}

func TestContentionPromotes(t *testing.T) {
	kv := newMapKV()
	s := newStore(kv, 3)
	for i := 0; i < 2; i++ {
		s.noteContention("h", classAdd)
	}
	if _, hot := s.split.lookup("h"); hot {
		t.Fatal("promoted below threshold")
	}
	s.noteContention("h", classAdd)
	if _, hot := s.split.lookup("h"); !hot {
		t.Fatal("not promoted at threshold")
	}
	if got := s.StatsSnapshot().Promotions; got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
}

func TestReconcileOnRead(t *testing.T) {
	kv := newMapKV()
	s := newStore(kv, 1)
	// Force promotion by pre-seeding contention, then verify a read-side
	// reconcile folds pending deltas.
	s.noteContention("h", classAdd)
	if _, hot := s.split.lookup("h"); !hot {
		t.Fatal("h not promoted")
	}
	for i := 0; i < 10; i++ {
		s.Incr("h", 1, uint64(i), nil)
	}
	if v, ok := kv.value("h"); ok {
		t.Fatalf("h reconciled too early: %q", v)
	}
	s.ReconcileKeyBytes([]byte("h"))
	if got := kv.get(t, "h"); got != "10" {
		t.Fatalf("h = %q, want 10 after read reconcile", got)
	}
}

func TestTickDemotesIdleKeys(t *testing.T) {
	kv := newMapKV()
	s := newStore(kv, 1)
	s.noteContention("h", classAdd)
	s.Incr("h", 3, 1, nil)
	s.Tick() // folds 3
	if got := kv.get(t, "h"); got != "3" {
		t.Fatalf("h = %q, want 3", got)
	}
	s.Tick() // idle 1
	s.Tick() // idle 2 → demote
	if _, hot := s.split.lookup("h"); hot {
		t.Fatal("h still hot after two idle ticks")
	}
	if got := s.StatsSnapshot().Demotions; got != 1 {
		t.Fatalf("Demotions = %d, want 1", got)
	}
}

func TestSetAndDeleteFoldPendingDeltas(t *testing.T) {
	kv := newMapKV()
	s := newStore(kv, 1)
	s.noteContention("h", classAdd)
	s.Incr("h", 5, 0, nil)
	// SET (the server's, under WithLock) serializes after the pending
	// INCRs: they fold, then the SET overwrites.
	s.WithLock("h", nil, func() { kv.Store("h", "100", 0, false) })
	if got := kv.get(t, "h"); got != "100" {
		t.Fatalf("h = %q, want 100", got)
	}
	s.Incr("h", 5, 0, nil)
	// So does a DEL queued in a transaction: the fold runs under the
	// stripe Exec holds, then the entry goes with it.
	s.Exec([]Op{{Kind: OpDel, Key: "h"}}, nil)
	if v, ok := kv.value("h"); ok {
		t.Fatalf("h survived delete: %q", v)
	}
	// A delta arriving after the delete restarts the counter from zero.
	s.Incr("h", 7, 0, nil)
	s.ReconcileAll()
	if got := kv.get(t, "h"); got != "7" {
		t.Fatalf("h = %q, want 7 after post-delete INCR", got)
	}
}

func TestExecReadYourWrites(t *testing.T) {
	kv := newMapKV()
	s := New(kv)
	kv.Store("a", "1", 0, false)
	res := s.Exec([]Op{
		{Kind: OpGet, Key: "a"},
		{Kind: OpSet, Key: "a", Val: "2"},
		{Kind: OpGet, Key: "a"},
		{Kind: OpIncr, Key: "a", Delta: 10},
		{Kind: OpGet, Key: "a"},
		{Kind: OpGet, Key: "missing"},
	}, nil)
	want := []Result{
		{Status: StatusValue, Value: "1"},
		{Status: StatusOK},
		{Status: StatusValue, Value: "2"},
		{Status: StatusOK},
		{Status: StatusValue, Value: "12"},
		{Status: StatusMiss},
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res[%d] = %+v, want %+v", i, res[i], want[i])
		}
	}
	if got := kv.get(t, "a"); got != "12" {
		t.Fatalf("a = %q, want 12 after commit", got)
	}
	// An empty queue commits nothing.
	if res := s.Exec(nil, nil); res != nil || s.StatsSnapshot().Commits != 1 {
		t.Fatalf("empty Exec = %v with %d commits, want nil after 1", res, s.StatsSnapshot().Commits)
	}
}

func TestExecCASAndDelete(t *testing.T) {
	kv := newMapKV()
	s := New(kv)
	kv.Store("k", "v1", 0, false)
	kv.Store("m", "10", 0, false)
	res := s.Exec([]Op{
		{Kind: OpCAS, Key: "k", Old: "nope", Val: "v2"},
		{Kind: OpCAS, Key: "k", Old: "v1", Val: "v2"},
		{Kind: OpDel, Key: "k"},
		{Kind: OpDel, Key: "k"},
		{Kind: OpCAS, Key: "k", Old: "v2", Val: "v3"},
		{Kind: OpSet, Key: "s", Val: "abc"},
		{Kind: OpIncr, Key: "s", Delta: 1},
		{Kind: OpMax, Key: "m", Delta: 5},
		{Kind: OpCAS + 1, Key: "m"},
	}, nil)
	want := []Status{StatusConflict, StatusOK, StatusOK, StatusMiss, StatusMiss, StatusOK, StatusErr, StatusOK, StatusErr}
	for i, w := range want {
		if res[i].Status != w {
			t.Fatalf("res[%d].Status = %v, want %v", i, res[i].Status, w)
		}
	}
	if res[6].Err != ErrNotInteger.Error() || res[8].Err != "unknown op" {
		t.Fatalf("errors %q and %q", res[6].Err, res[8].Err)
	}
	if _, ok := kv.value("k"); ok {
		t.Fatal("k survived transactional delete")
	}
	if got := kv.get(t, "m"); got != "10" {
		t.Fatalf("MAX 5 over 10 left %q", got)
	}
}

func TestExecAtomicTransfer(t *testing.T) {
	// Concurrent balance transfers preserve the invariant sum, and every
	// transaction commits exactly once.
	kv := newMapKV()
	s := New(kv)
	s.locks = spinlock.NewStripe(8) // few stripes: transactions collide
	kv.Store("x", "1000", 0, false)
	kv.Store("y", "1000", 0, false)
	const goroutines, transfers = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < transfers; n++ {
				s.Exec([]Op{
					{Kind: OpIncr, Key: "x", Delta: -1},
					{Kind: OpIncr, Key: "y", Delta: 1},
				}, nil)
			}
		}()
	}
	wg.Wait()
	x, _ := strconv.Atoi(kv.get(t, "x"))
	y, _ := strconv.Atoi(kv.get(t, "y"))
	if x+y != 2000 {
		t.Fatalf("x+y = %d, want 2000 (x=%d y=%d)", x+y, x, y)
	}
	if y != 1000+goroutines*transfers {
		t.Fatalf("y = %d, want %d", y, 1000+goroutines*transfers)
	}
	if got := s.StatsSnapshot().Commits; got != goroutines*transfers {
		t.Fatalf("Commits = %d, want %d", got, goroutines*transfers)
	}
}

// yieldKV gives up the processor inside a Load of a key whose stripe is
// free, so a transaction that read its keys before taking their stripes
// would let another commit land between two of its reads. Exec loads
// under the stripes it holds and never yields here: a holder that yielded
// could starve the goroutines spinning on its stripes.
type yieldKV struct {
	*mapKV
	s *Store
}

func (k *yieldKV) Load(key string) (string, int64, bool) {
	if !k.s.locks.Locked(k.s.stripeFor(key)) {
		runtime.Gosched()
	}
	return k.mapKV.Load(key)
}

// TestExecOrderedCommit checks Exec's one commit path: its results and
// writes are those of the same ops run one after another; it does not
// deadlock against a committer on the same stripes in the opposite
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

func checkExec(t *testing.T, concurrent bool) {
	t.Helper()
	kv := newMapKV()
	s := newStore(kv, -1)
	s.locks = spinlock.NewStripe(8)
	// keyOn returns the first of prefix0, prefix1, ... whose stripe is
	// like's (or, with same false, is not).
	keyOn := func(prefix, like string, same bool) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("%s%d", prefix, i)
			if (s.stripeFor(k) == s.stripeFor(like)) == same {
				return k
			}
		}
	}
	b := keyOn("b", "a", false)
	seed := map[string]string{"a": "1", b: "2", "d": "x"}
	for k, v := range seed {
		kv.Store(k, v, 0, false)
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

	// The committer's keys share a's and b's stripes, in the opposite
	// order, so its commits take the stripes this transaction takes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits uint64
	x, y := keyOn("x", "a", true), keyOn("y", b, true)
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
				s.Exec([]Op{{Kind: OpIncr, Key: y, Delta: 1}, {Kind: OpIncr, Key: x, Delta: 1}}, nil)
				commits++
			}
		}()
	}
	res := s.Exec(ops, nil)
	close(stop)
	wg.Wait()
	for _, k := range []string{x, y} {
		if got, _ := kv.value(k); commits > 0 && got != strconv.FormatUint(commits, 10) {
			t.Fatalf("%s = %q after %d committed increments", k, got, commits)
		}
	}

	// The model: the same ops one at a time, from the same seed.
	model := newMapKV()
	seq := newStore(model, -1)
	for k, v := range seed {
		model.Store(k, v, 0, false)
	}
	for i := range ops {
		want := seq.Exec(ops[i:i+1], nil)
		if res[i] != want[0] {
			t.Fatalf("op %d (%+v): transaction %+v, one at a time %+v", i, ops[i], res[i], want[0])
		}
	}
	for _, k := range []string{"a", b, "c", "d", "e"} {
		got, gok := kv.value(k)
		want, wok := model.value(k)
		if got != want || gok != wok {
			t.Fatalf("%s = %q (%v) after the transaction, %q (%v) one at a time", k, got, gok, want, wok)
		}
	}
}

// checkSnapshot runs read-only EXECs of GET x, GET y while two goroutines
// transfer between x and y: every read must see x+y unchanged.
func checkSnapshot(t *testing.T) {
	t.Helper()
	kv := &yieldKV{mapKV: newMapKV()}
	s := newStore(kv, -1)
	kv.s = s
	kv.Store("x", "1000", 0, false)
	kv.Store("y", "1000", 0, false)
	var wg sync.WaitGroup
	var writing atomic.Int32
	for _, d := range []int64{-1, 1} {
		wg.Add(1)
		writing.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Add(-1)
			for range 300 {
				s.Exec([]Op{{Kind: OpIncr, Key: "x", Delta: -d}, {Kind: OpIncr, Key: "y", Delta: d}}, nil)
			}
		}()
	}
	for n := 0; n == 0 || writing.Load() > 0; n++ {
		res := s.Exec([]Op{{Kind: OpGet, Key: "x"}, {Kind: OpGet, Key: "y"}}, nil)
		x, _ := strconv.Atoi(res[0].Value)
		y, _ := strconv.Atoi(res[1].Value)
		if x+y != 2000 {
			t.Fatalf("read %d: x=%d y=%d, sum %d, want 2000", n, x, y, x+y)
		}
	}
	wg.Wait()
}

func TestSplitShardPadding(t *testing.T) {
	// One shard per cache line: concurrent split updates from different
	// hints must not false-share.
	if sz := unsafe.Sizeof(splitShard{}); sz%64 != 0 {
		t.Fatalf("splitShard is %d bytes; want a multiple of 64", sz)
	}
}

func TestWithLockBumpsVersion(t *testing.T) {
	kv := newMapKV()
	s := New(kv)
	i := s.stripeFor("k")
	before, _ := s.locks.Snapshot(i)
	got := make(chan Result)
	s.WithLock("k", nil, func() {
		// A transaction reading k meanwhile waits the writer out: it
		// spins on the stripe, yielding now and then, and reads what the
		// writer wrote.
		go func() {
			res := s.Exec([]Op{{Kind: OpGet, Key: "k"}}, nil)
			got <- res[0]
		}()
		time.Sleep(5 * time.Millisecond)
		kv.Store("k", "v", 0, false)
	})
	if after, _ := s.locks.Snapshot(i); after == before {
		t.Fatal("WithLock did not advance the stripe version")
	}
	if res := <-got; res != (Result{Status: StatusValue, Value: "v"}) {
		t.Fatalf("read under a held stripe = %+v, want the writer's value", res)
	}
}
