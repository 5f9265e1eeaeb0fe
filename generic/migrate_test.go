package generic

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// fillUntilGrow inserts ascending keys into a fresh 64-slot table through
// tryPut, which neither grows nor drains, until one is refused, then forces
// a grow. It returns the table and how many keys it holds, every one of
// them in the draining generation: forceGrow starts no sweeper and no write
// has run since, so the migration advances only through the test's own
// writes and migrateBatch calls.
func fillUntilGrow(t *testing.T, cfg Config) (*Table[int, int], int) {
	t.Helper()
	cfg.InitialCapacity = 64
	tab := MustNew[int, int](cfg)
	for i := 0; ; i++ {
		switch err := tab.tryPut(i, i*3, false); err {
		case nil:
		case ErrFull:
			forceGrow(tab)
			return tab, i
		default:
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func TestIncrementalGrowKeepsKeysVisible(t *testing.T) {
	tab, n := fillUntilGrow(t, Config{})

	// Migration is in flight: every key must be readable from whichever
	// generation currently holds it.
	if !tab.Growing() {
		t.Fatal("expected migration in flight")
	}
	for i := 0; i < n; i++ {
		if v, ok := tab.Get(i); !ok || v != i*3 {
			t.Fatalf("mid-migration Get(%d) = %v, %v", i, v, ok)
		}
	}

	// Drain in bounded batches; backlog must reach zero and the old
	// generation must be retired.
	for tab.Growing() {
		if tab.migrateBatch(4) == 0 && tab.Growing() {
			t.Fatal("migration stalled with a nonzero backlog")
		}
	}
	st := tab.Stats()
	if st.MigrationBacklog != 0 {
		t.Fatalf("backlog = %d after drain", st.MigrationBacklog)
	}
	if st.MigratedBuckets == 0 {
		t.Fatal("MigratedBuckets not counted")
	}
	if st.Grows == 0 {
		t.Fatal("Grows not counted")
	}
	for i := 0; i < n; i++ {
		if v, ok := tab.Get(i); !ok || v != i*3 {
			t.Fatalf("post-migration Get(%d) = %v, %v", i, v, ok)
		}
	}
	if got := tab.Len(); got != uint64(n) {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

func TestWritesLandInLiveGeneration(t *testing.T) {
	tab, n := fillUntilGrow(t, Config{})
	if !tab.Growing() {
		t.Fatal("expected migration in flight")
	}

	// Overwrite every key while the migration is held open (tryPut is an
	// Upsert that drains nothing): each value must fold forward into the
	// live generation, and deletes must find keys wherever they live.
	for i := 0; i < n; i++ {
		if err := tab.tryPut(i, i*7, true); err != nil {
			t.Fatalf("mid-migration Upsert(%d): %v", i, err)
		}
	}
	if b := backlog(tab.loadState()); b != 16 {
		t.Fatalf("backlog %d after the overwrites, want all 16 buckets", b)
	}
	// A key folded forward already held a slot: it is moved, not added.
	if got := tab.Len(); got != uint64(n) {
		t.Fatalf("Len = %d after fold-forward overwrites, want %d unchanged", got, n)
	}
	// Insert of an existing key must still report ErrExists across
	// generations.
	if err := tab.Insert(0, 1); err != ErrExists {
		t.Fatalf("Insert(existing) = %v, want ErrExists", err)
	}
	for i := 0; i < n; i += 3 {
		if !tab.Delete(i) {
			t.Fatalf("mid-migration Delete(%d) = false", i)
		}
	}
	for tab.Growing() {
		tab.migrateBatch(16)
	}
	for i := 0; i < n; i++ {
		v, ok := tab.Get(i)
		if i%3 == 0 {
			if ok {
				t.Fatalf("Get(%d) found deleted key", i)
			}
			continue
		}
		if !ok || v != i*7 {
			t.Fatalf("Get(%d) = %v, %v; want %d", i, v, ok, i*7)
		}
	}
}

func TestMaxCapacityBoundsGrowth(t *testing.T) {
	tab, err := New[int, int](Config{InitialCapacity: 64, MaxCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	var full bool
	for i := 0; i < 4096; i++ {
		if err := tab.Insert(i, i); err == ErrFull {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("capped table never reported ErrFull")
	}
	if got := tab.Cap(); got != 256 {
		t.Fatalf("Cap = %d at the first ErrFull, want MaxCapacity 256", got)
	}
}

// TestGrowthSchedule pins the growth rule: each grow makes the live arrays
// ⌈1.5·n⌉ buckets rounded up to even, and the last goes to MaxCapacity's
// bucket count, rather than stopping at the last step that fits under it,
// as soon as that is at most twice the live count: 10 368 → 16 384, not a
// step to 15 552 and then one of 5 %, whose drain could not keep up with
// the fill and escalated past the cap. Nothing escalates: the table is
// refused at exactly its cap.
func TestGrowthSchedule(t *testing.T) {
	var grows []uint64
	cfg := Config{
		InitialCapacity: 8192,
		MaxCapacity:     65536,
		// A put-driven grow starts on this goroutine; only an escalation,
		// which this test rules out, could start on a sweeper.
		OnGrowEvent: func(ev GrowEvent) {
			if ev.Kind == GrowStart {
				grows = append(grows, ev.ToBuckets)
			}
		},
	}
	tab, err := New[int, int](cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillToFull(t, tab, 0)
	if want := []uint64{3072, 4608, 6912, 10368, 16384}; !slices.Equal(grows, want) {
		t.Errorf("grew to %v buckets, want %v", grows, want)
	}
	if tab.Cap() != 65536 {
		t.Errorf("Cap = %d at the first ErrFull, want 65536", tab.Cap())
	}

	// Where 1.5·n is odd it rounds up, so no table has an odd bucket count.
	grows, cfg.InitialCapacity, cfg.MaxCapacity = nil, 8, 0
	if tab, err = New[int, int](cfg); err != nil {
		t.Fatal(err)
	}
	for range 5 {
		forceGrow(tab)
	}
	if want := []uint64{4, 6, 10, 16, 24}; !slices.Equal(grows, want) {
		t.Errorf("2 buckets grew to %v, want %v", grows, want)
	}
}

func TestRangeCompletesInFlightMigration(t *testing.T) {
	tab, n := fillUntilGrow(t, Config{})
	if !tab.Growing() {
		t.Fatal("expected migration in flight")
	}
	items := tab.Items()
	if tab.Growing() {
		t.Fatal("Range did not fold the in-flight migration")
	}
	if len(items) != n {
		t.Fatalf("Items len = %d, want %d", len(items), n)
	}
	for k, v := range items {
		if v != k*3 {
			t.Fatalf("items[%d] = %d, want %d", k, v, k*3)
		}
	}
}

func TestGrowEvents(t *testing.T) {
	var mu sync.Mutex
	var events []GrowEvent
	tab, _ := fillUntilGrow(t, Config{
		OnGrowEvent: func(ev GrowEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	for tab.Growing() {
		tab.migrateBatch(16)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) < 2 {
		t.Fatalf("got %d grow events, want at least start+done", len(events))
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != GrowStart || first.FromBuckets != 16 || first.ToBuckets != 24 {
		t.Fatalf("first event = %+v, want the start of a grow from 16 buckets to 24", first)
	}
	if last.Kind != GrowDone || last.Backlog != 0 {
		t.Fatalf("last event = %+v, want a done event with zero backlog", last)
	}
}

// TestConcurrentOpsAcrossManualMigration: writers insert and read back
// their own keys beside a migrator, and each also increments one shared
// counter through Update — a read-modify-write in one critical section —
// while one of them forces grows; the counter must end exact.
func TestConcurrentOpsAcrossManualMigration(t *testing.T) {
	tab := MustNew[int, int](Config{InitialCapacity: 64})
	const (
		workers = 4
		perW    = 4000
		counter = -1 // the writers' keys are 0 and up
	)
	incr := func(cur int, _ bool) (int, Action) { return cur + 1, Store }
	stop := make(chan struct{})
	var migrators sync.WaitGroup
	migrators.Add(1)
	go func() {
		defer migrators.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tab.migrateBatch(2)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := w*perW + i
				if err := tab.Insert(k, k); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
				if v, ok := tab.Get(k); !ok || v != k {
					t.Errorf("readback %d = %v, %v", k, v, ok)
					return
				}
				if _, err := tab.Update(counter, incr); err != nil {
					t.Errorf("increment %d: %v", k, err)
					return
				}
				if w == 0 && i%1000 == 999 {
					forceGrow(tab)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	migrators.Wait()
	for tab.Growing() {
		tab.migrateBatch(64)
	}
	if got := tab.Len(); got != workers*perW+1 {
		t.Fatalf("Len = %d, want %d", got, workers*perW+1)
	}
	if n, _ := tab.Get(counter); n != workers*perW {
		t.Fatalf("counter = %d after %d increments", n, workers*perW)
	}
	for k := 0; k < workers*perW; k++ {
		if v, ok := tab.Get(k); !ok || v != k {
			t.Fatalf("final Get(%d) = %v, %v", k, v, ok)
		}
	}
	checkSlots(t, tab)
}

func TestChainedGrowUnderSustainedInserts(t *testing.T) {
	// Background sweeping on, tiny initial size: sustained inserts must
	// ride through several overlapping grows without losing a key.
	tab, err := New[string, int](Config{InitialCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60000
	for i := 0; i < n; i++ {
		if err := tab.Insert(fmt.Sprintf("key-%d", i), i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tab.Stats().Grows < 2 {
		t.Fatalf("Grows = %d, want at least 2", tab.Stats().Grows)
	}
	for i := 0; i < n; i++ {
		if v, ok := tab.Get(fmt.Sprintf("key-%d", i)); !ok || v != i {
			t.Fatalf("Get(key-%d) = %v, %v", i, v, ok)
		}
	}
	for tab.Growing() {
		tab.migrateBatch(64)
	}
	checkSlots(t, tab)
}

// TestDrainPassesAStalledClaim: a migrator that claimed a bucket and then
// stalled before draining it — a sweeper the scheduler has not run since —
// must not hold every other drain behind it. Once every bucket is claimed,
// MigrateBatch drains an unmarked one itself, which migrateBucket allows
// beside its claimant. Had it waited, writes would go on filling the live
// generation while no draining one retired, and a table growing by half
// could come to hold more keys than its live generation has slots.
func TestDrainPassesAStalledClaim(t *testing.T) {
	tab, _ := fillUntilGrow(t, Config{})
	g := tab.loadState().olds[0]
	g.next.Add(1) // bucket 0, claimed by nobody who will drain it
	for tab.Growing() {
		if tab.migrateBatch(4) == 0 && tab.Growing() {
			t.Fatalf("the drain stalled behind a claimed bucket, backlog %d", backlog(tab.loadState()))
		}
	}
	if b := g.firstUnmarked(); b != g.arr.buckets {
		t.Fatalf("bucket %d of the retired generation is unmarked", b)
	}
	checkSlots(t, tab)
}

// TestDrainEscalates: a draining generation whose keys no longer fit in a
// full live one neither stalls nor loses a key: its drain grows the table
// again, past any cap, whether the drain holds growMu (Range's) or takes it
// (migrateBatch's).
func TestDrainEscalates(t *testing.T) {
	for _, walk := range []bool{true, false} {
		t.Run(fmt.Sprintf("range=%v", walk), func(t *testing.T) {
			tab := MustNew[int, int](Config{InitialCapacity: 64})
			n := 0
			fill := func() { // to the first refusal, with no grow and no drain
				for ; tab.tryPut(n, n, false) == nil; n++ {
				}
			}
			fill()
			forceGrow(tab)
			fill() // the live generation is full beside the draining one
			grows := tab.Stats().Grows
			if walk {
				tab.Items()
			}
			for tab.Growing() {
				tab.migrateBatch(64)
			}
			if tab.Stats().Grows == grows {
				t.Fatal("the drain found room for every key in a full live generation")
			}
			for k := range n {
				if v, ok := tab.Get(k); !ok || v != k {
					t.Fatalf("Get(%d) = %d, %v after the escalated drain", k, v, ok)
				}
			}
			checkSlots(t, tab)
		})
	}
}
