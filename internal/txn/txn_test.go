package txn

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// mapKV is a mutex-guarded map backing store for tests. The stripe layer
// above serializes per-key access; the mutex only makes the map itself
// safe for concurrent access across distinct keys.
type mapKV struct {
	mu sync.Mutex
	m  map[string]string
}

func newMapKV() *mapKV { return &mapKV{m: make(map[string]string)} }

func (k *mapKV) Load(key string) (string, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.m[key]
	return v, ok
}

func (k *mapKV) Store(key, val string, expireAt int64, keepTTL bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.m[key] = val
	return nil
}

func (k *mapKV) Delete(key string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, ok := k.m[key]
	delete(k.m, key)
	return ok
}

func (k *mapKV) get(t *testing.T, key string) string {
	t.Helper()
	v, ok := k.Load(key)
	if !ok {
		t.Fatalf("key %q missing", key)
	}
	return v
}

func TestIncrBasics(t *testing.T) {
	kv := newMapKV()
	s := New(kv, Config{PromoteAfter: -1})
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
	if err := s.Set("junk", "not-a-number", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Incr("junk", 1, 0, nil); err != ErrNotInteger {
		t.Fatalf("Incr on junk = %v, want ErrNotInteger", err)
	}
}

func TestMaxUpdate(t *testing.T) {
	kv := newMapKV()
	s := New(kv, Config{PromoteAfter: -1})
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
	s := New(kv, Config{})
	if res, _ := s.CAS("k", "a", "b", nil); res != CASMiss {
		t.Fatalf("CAS on missing = %v, want CASMiss", res)
	}
	s.Set("k", "a", 0, nil)
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
		s := New(kv, Config{PromoteAfter: 1})
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
	s := New(kv, Config{PromoteAfter: 3})
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
	s := New(kv, Config{PromoteAfter: 1})
	// Force promotion by pre-seeding contention, then verify a read-side
	// reconcile folds pending deltas.
	s.noteContention("h", classAdd)
	if _, hot := s.split.lookup("h"); !hot {
		t.Fatal("h not promoted")
	}
	for i := 0; i < 10; i++ {
		s.Incr("h", 1, uint64(i), nil)
	}
	if v, ok := kv.Load("h"); ok {
		t.Fatalf("h reconciled too early: %q", v)
	}
	s.ReconcileKey("h")
	if got := kv.get(t, "h"); got != "10" {
		t.Fatalf("h = %q, want 10 after read reconcile", got)
	}
}

func TestTickDemotesIdleKeys(t *testing.T) {
	kv := newMapKV()
	s := New(kv, Config{PromoteAfter: 1})
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
	s := New(kv, Config{PromoteAfter: 1})
	s.noteContention("h", classAdd)
	s.Incr("h", 5, 0, nil)
	// SET serializes after the pending INCRs: they fold, then the SET
	// overwrites.
	s.Set("h", "100", 0, nil)
	if got := kv.get(t, "h"); got != "100" {
		t.Fatalf("h = %q, want 100", got)
	}
	s.Incr("h", 5, 0, nil)
	s.Delete("h", nil)
	if v, ok := kv.Load("h"); ok {
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
	s := New(kv, Config{})
	s.Set("a", "1", 0, nil)
	res, info := s.Exec([]Op{
		{Kind: OpGet, Key: "a"},
		{Kind: OpSet, Key: "a", Val: "2"},
		{Kind: OpGet, Key: "a"},
		{Kind: OpIncr, Key: "a", Delta: 10},
		{Kind: OpGet, Key: "a"},
		{Kind: OpGet, Key: "missing"},
	}, nil)
	if info.Pessimistic {
		t.Fatal("uncontended txn took the pessimistic path")
	}
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
}

func TestExecCASAndDelete(t *testing.T) {
	kv := newMapKV()
	s := New(kv, Config{})
	s.Set("k", "v1", 0, nil)
	s.Set("m", "10", 0, nil)
	res, _ := s.Exec([]Op{
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
	if _, ok := kv.Load("k"); ok {
		t.Fatal("k survived transactional delete")
	}
	if got := kv.get(t, "m"); got != "10" {
		t.Fatalf("MAX 5 over 10 left %q", got)
	}
}

func TestExecAtomicTransfer(t *testing.T) {
	// Concurrent balance transfers preserve the invariant sum — the
	// classic OCC smoke test. Aborted validations must retry, and the
	// histogram must account for every commit.
	kv := newMapKV()
	s := New(kv, Config{Stripes: 8}) // few stripes → frequent conflicts
	s.Set("x", "1000", 0, nil)
	s.Set("y", "1000", 0, nil)
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
	st := s.StatsSnapshot()
	var hist uint64
	for _, n := range st.RetryHist {
		hist += n
	}
	if hist != st.Commits {
		t.Fatalf("retry histogram sums to %d, commits = %d", hist, st.Commits)
	}
}

// interferingKV commits a write to victim, under victim's stripe, each
// time a transaction loads trigger while that stripe is free: every
// optimistic attempt that read victim first then fails validation. The
// pessimistic fallback holds victim's stripe when it loads trigger, so it
// is left alone.
type interferingKV struct {
	*mapKV
	s               *Store
	trigger, victim string
}

func (k *interferingKV) Load(key string) (string, bool) {
	if key == k.trigger && !k.s.locks.Locked(k.s.stripeFor(k.victim)) {
		k.s.Set(k.victim, "10", 0, nil)
	}
	return k.mapKV.Load(key)
}

// TestExecPessimisticFallback drives Exec past its retry budget and checks
// the fallback: it commits, its results and writes are those of the same
// ops run one after another, txn_fallbacks counts it once, and it does not
// deadlock against an optimistic committer on the same stripes.
func TestExecPessimisticFallback(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		rounds := 1
		if concurrent {
			rounds = 50
		}
		for range rounds {
			checkFallback(t, concurrent)
		}
	}
}

func checkFallback(t *testing.T, concurrent bool) {
	t.Helper()
	kv := &interferingKV{mapKV: newMapKV(), victim: "a"}
	s := New(kv, Config{MaxRetries: 2, Stripes: 8, PromoteAfter: -1})
	kv.s = s
	// keyOn returns the first of prefix0, prefix1, ... whose stripe is
	// like's (or, with same false, is not). The trigger needs a stripe of
	// its own: loading it must not move the version its read validates.
	keyOn := func(prefix, like string, same bool) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("%s%d", prefix, i)
			if (s.stripeFor(k) == s.stripeFor(like)) == same {
				return k
			}
		}
	}
	b := keyOn("b", "a", false)
	kv.trigger = b
	seed := map[string]string{"a": "1", b: "2", "d": "x"}
	for k, v := range seed {
		s.Set(k, v, 0, nil)
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
	// order, so its commits take the stripes the fallback holds.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var theirs, commits uint64
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
				if _, info := s.Exec([]Op{{Kind: OpIncr, Key: y, Delta: 1}, {Kind: OpIncr, Key: x, Delta: 1}}, nil); info.Pessimistic {
					theirs++
				}
				commits++
			}
		}()
	}
	before := s.StatsSnapshot().Fallbacks
	res, info := s.Exec(ops, nil)
	close(stop)
	wg.Wait()
	for _, k := range []string{x, y} {
		if got, _ := kv.mapKV.Load(k); commits > 0 && got != strconv.FormatUint(commits, 10) {
			t.Fatalf("%s = %q after %d committed increments", k, got, commits)
		}
	}
	if !info.Pessimistic || info.Retries != 3 {
		t.Fatalf("info = %+v, want the pessimistic fallback after 3 attempts", info)
	}
	if got := s.StatsSnapshot().Fallbacks - before - theirs; got != 1 {
		t.Fatalf("txn_fallbacks rose by %d for one fallback", got)
	}

	// The model: the same ops one at a time, from the state the fallback
	// saw (the interfering writes left a at 10).
	model := newMapKV()
	seq := New(model, Config{PromoteAfter: -1})
	seed["a"] = "10"
	for k, v := range seed {
		seq.Set(k, v, 0, nil)
	}
	for i := range ops {
		want, _ := seq.Exec(ops[i:i+1], nil)
		if res[i] != want[0] {
			t.Fatalf("op %d (%+v): fallback %+v, one at a time %+v", i, ops[i], res[i], want[0])
		}
	}
	for _, k := range []string{"a", b, "c", "d", "e"} {
		got, gok := kv.mapKV.Load(k)
		want, wok := model.Load(k)
		if got != want || gok != wok {
			t.Fatalf("%s = %q (%v) after the fallback, %q (%v) one at a time", k, got, gok, want, wok)
		}
	}
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
	s := New(kv, Config{})
	i := s.stripeFor("k")
	before := s.locks.Version(i)
	got := make(chan Result)
	s.WithLock("k", nil, func() {
		// A transaction reading k meanwhile waits the writer out (Eq. 1):
		// it spins, yielding now and then, and reads what the writer wrote.
		go func() {
			res, _ := s.Exec([]Op{{Kind: OpGet, Key: "k"}}, nil)
			got <- res[0]
		}()
		time.Sleep(5 * time.Millisecond)
		kv.Store("k", "v", 0, false)
	})
	if after := s.locks.Version(i); after == before {
		t.Fatal("WithLock did not advance the stripe version")
	}
	if res := <-got; res != (Result{Status: StatusValue, Value: "v"}) {
		t.Fatalf("read under a held stripe = %+v, want the writer's value", res)
	}
}

func TestEpochAbortOnMigration(t *testing.T) {
	kv := newMapKV()
	var epoch atomic.Uint64
	// The epoch source fires once mid-window: the first transactional
	// read observes epoch 0, then a "migration" bumps the word before
	// commit validation runs, so the first attempt must abort and the
	// retry (which observes the settled epoch 1) must commit.
	var reads atomic.Uint64
	s := New(kv, Config{
		PromoteAfter: -1,
		Epoch: func(key string) uint64 {
			if reads.Add(1) == 1 {
				defer epoch.Add(1)
			}
			return epoch.Load()
		},
	})
	if err := s.Set("a", "1", 0, nil); err != nil {
		t.Fatal(err)
	}
	res, info := s.Exec([]Op{{Kind: OpIncr, Key: "a", Delta: 1}}, nil)
	if res[0].Status != StatusOK {
		t.Fatalf("result = %+v", res[0])
	}
	if info.Retries == 0 {
		t.Fatal("expected at least one epoch-driven retry")
	}
	if got := kv.get(t, "a"); got != "2" {
		t.Fatalf("a = %q, want 2", got)
	}
	st := s.StatsSnapshot()
	if st.EpochAborts == 0 {
		t.Fatal("EpochAborts not counted")
	}
	if st.Aborts < st.EpochAborts {
		t.Fatalf("Aborts=%d < EpochAborts=%d", st.Aborts, st.EpochAborts)
	}
}

func TestEpochStableCommitsFirstTry(t *testing.T) {
	kv := newMapKV()
	s := New(kv, Config{
		PromoteAfter: -1,
		Epoch:        func(string) uint64 { return 7 },
	})
	if err := s.Set("a", "1", 0, nil); err != nil {
		t.Fatal(err)
	}
	res, info := s.Exec([]Op{{Kind: OpIncr, Key: "a", Delta: 1}}, nil)
	if res[0].Status != StatusOK || info.Retries != 0 {
		t.Fatalf("res=%+v info=%+v, want clean first-try commit", res[0], info)
	}
	if st := s.StatsSnapshot(); st.EpochAborts != 0 {
		t.Fatalf("EpochAborts = %d, want 0", st.EpochAborts)
	}
}
