package generic

import (
	"fmt"
	"sync"
	"testing"
)

// noSweepTable returns a table whose migration advances only through
// explicit MigrateBatch calls, so tests can hold a migration open and
// observe the two-generation state deterministically.
func noSweepTable(t *testing.T, initial, max uint64) *Table[int, int] {
	t.Helper()
	tab, err := New[int, int](Config{
		InitialCapacity:        initial,
		MaxCapacity:            max,
		DisableBackgroundSweep: true,
		MigrateBatch:           -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// fillUntilGrow inserts ascending keys until the table starts a grow,
// returning how many keys were inserted.
func fillUntilGrow(t *testing.T, tab *Table[int, int]) int {
	t.Helper()
	for i := 0; ; i++ {
		if err := tab.Insert(i, i*3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if tab.Growing() {
			return i + 1
		}
		if i > 1<<20 {
			t.Fatal("table never grew")
		}
	}
}

func TestIncrementalGrowKeepsKeysVisible(t *testing.T) {
	tab := noSweepTable(t, 64, 0)
	n := fillUntilGrow(t, tab)

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
		if tab.MigrateBatch(4) == 0 && tab.Growing() {
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

func TestMigrationEpochAdvances(t *testing.T) {
	tab := noSweepTable(t, 64, 0)
	e0 := tab.MigrationEpoch()
	fillUntilGrow(t, tab)
	e1 := tab.MigrationEpoch()
	if e1 == e0 {
		t.Fatal("epoch did not advance at grow start")
	}
	for tab.Growing() {
		tab.MigrateBatch(16)
	}
	if tab.MigrationEpoch() == e1 {
		t.Fatal("epoch did not advance at migration finish")
	}
}

func TestWritesLandInLiveGeneration(t *testing.T) {
	tab := noSweepTable(t, 64, 0)
	n := fillUntilGrow(t, tab)
	if !tab.Growing() {
		t.Fatal("expected migration in flight")
	}

	// Upsert every key while the migration is held open: each value
	// must fold forward into the live generation, and deletes must find
	// keys wherever they live.
	for i := 0; i < n; i++ {
		if err := tab.Upsert(i, i*7); err != nil {
			t.Fatalf("mid-migration Upsert(%d): %v", i, err)
		}
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
		tab.MigrateBatch(16)
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
	if got := tab.Cap(); got > 256 {
		t.Fatalf("Cap = %d, exceeds MaxCapacity 256", got)
	}
}

func TestRangeCompletesInFlightMigration(t *testing.T) {
	tab := noSweepTable(t, 64, 0)
	n := fillUntilGrow(t, tab)
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
	tab, err := New[int, int](Config{
		InitialCapacity:        64,
		DisableBackgroundSweep: true,
		MigrateBatch:           -1,
		OnGrowEvent: func(ev GrowEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !tab.Growing(); i++ {
		if err := tab.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for tab.Growing() {
		tab.MigrateBatch(16)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) < 2 {
		t.Fatalf("got %d grow events, want at least start+done", len(events))
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != GrowStart || first.ToBuckets != first.FromBuckets*2 {
		t.Fatalf("first event = %+v, want a doubling start", first)
	}
	if last.Kind != GrowDone || last.Backlog != 0 {
		t.Fatalf("last event = %+v, want a done event with zero backlog", last)
	}
}

func TestConcurrentOpsAcrossManualMigration(t *testing.T) {
	tab := noSweepTable(t, 64, 0)
	const (
		workers = 4
		perW    = 4000
	)
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
				tab.MigrateBatch(2)
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
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	migrators.Wait()
	for tab.Growing() {
		tab.MigrateBatch(64)
	}
	if got := tab.Len(); got != workers*perW {
		t.Fatalf("Len = %d, want %d", got, workers*perW)
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
		tab.MigrateBatch(64)
	}
	checkSlots(t, tab)
}
