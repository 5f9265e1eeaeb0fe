package txn

import (
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// mapKV is a mutex-guarded map backing store for tests: its mutex is
// every key's critical section at once, and an Update that finds it held
// reports the wait, as a table pin does.
type mapKV struct {
	mu sync.Mutex
	m  map[string]string
}

func newMapKV() *mapKV { return &mapKV{m: make(map[string]string)} }

// value is key's value.
func (k *mapKV) value(key string) (string, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.m[key]
	return v, ok
}

func (k *mapKV) Update(key string, ch Change) (Change, error) {
	if !k.mu.TryLock() {
		ch.Waited()
		k.mu.Lock()
	}
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
func (k *mapKV) Store(key, val string) {
	k.mu.Lock()
	k.m[key] = val
	k.mu.Unlock()
}

// exec commits ops against k as cuckood's Cache.Exec does, with k's mutex
// for the keys' pins: load every key, run, write.
func (k *mapKV) exec(s *Store, ops []Op) []Result {
	if len(ops) == 0 {
		return nil
	}
	var tx Tx
	s.Begin(&tx, ops)
	k.mu.Lock()
	for i := range ops {
		if tx.Distinct(i) {
			v, ok := k.m[ops[i].Key]
			tx.Load(i, v, 0, ok)
		}
	}
	tx.Run()
	for i := range ops {
		switch write, v, _ := tx.Write(i); write {
		case OpSet:
			k.m[ops[i].Key] = v
		case OpDel:
			delete(k.m, ops[i].Key)
		}
	}
	k.mu.Unlock()
	return tx.Done()
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
	kv.Store("junk", "not-a-number")
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
	kv.Store("k", "a")
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
	// organic, where promotion happens only when Updates collide on
	// mapKV's mutex (how often is the scheduler's business, so only the sum
	// is asserted).
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
	// A SET (the server's, which discards in the critical section that
	// writes) replaces the pending INCRs with its value.
	if !s.Discard("h") {
		t.Fatal("Discard found no pending delta")
	}
	kv.Store("h", "100")
	if got := kv.get(t, "h"); got != "100" {
		t.Fatalf("h = %q, want 100", got)
	}
	s.ReconcileAll()
	if got := kv.get(t, "h"); got != "100" {
		t.Fatalf("h = %q after a fold, want 100: the discarded delta came back", got)
	}
	s.Incr("h", 5, 0, nil)
	// A DEL queued in a transaction folds them: the load under the pin
	// takes the deltas, then the entry goes with them.
	kv.exec(s, []Op{{Kind: OpDel, Key: "h"}})
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
	kv.Store("a", "1")
	res := kv.exec(s, []Op{
		{Kind: OpGet, Key: "a"},
		{Kind: OpSet, Key: "a", Val: "2"},
		{Kind: OpGet, Key: "a"},
		{Kind: OpIncr, Key: "a", Delta: 10},
		{Kind: OpGet, Key: "a"},
		{Kind: OpGet, Key: "missing"},
	})
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
	if res := kv.exec(s, nil); res != nil || s.StatsSnapshot().Commits != 1 {
		t.Fatalf("empty Exec = %v with %d commits, want nil after 1", res, s.StatsSnapshot().Commits)
	}
}

func TestExecCASAndDelete(t *testing.T) {
	kv := newMapKV()
	s := New(kv)
	kv.Store("k", "v1")
	kv.Store("m", "10")
	res := kv.exec(s, []Op{
		{Kind: OpCAS, Key: "k", Old: "nope", Val: "v2"},
		{Kind: OpCAS, Key: "k", Old: "v1", Val: "v2"},
		{Kind: OpDel, Key: "k"},
		{Kind: OpDel, Key: "k"},
		{Kind: OpCAS, Key: "k", Old: "v2", Val: "v3"},
		{Kind: OpSet, Key: "s", Val: "abc"},
		{Kind: OpIncr, Key: "s", Delta: 1},
		{Kind: OpMax, Key: "m", Delta: 5},
		{Kind: OpCAS + 1, Key: "m"},
	})
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
	kv.Store("x", "1000")
	kv.Store("y", "1000")
	const goroutines, transfers = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < transfers; n++ {
				kv.exec(s, []Op{
					{Kind: OpIncr, Key: "x", Delta: -1},
					{Kind: OpIncr, Key: "y", Delta: 1},
				})
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

func TestSplitShardPadding(t *testing.T) {
	// One shard per cache line: concurrent split updates from different
	// hints must not false-share.
	if sz := unsafe.Sizeof(splitShard{}); sz%64 != 0 {
		t.Fatalf("splitShard is %d bytes; want a multiple of 64", sz)
	}
}
