package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/workload"
)

// checkInvariants validates the table's structural invariants with no
// concurrent activity; see invariantErr.
func checkInvariants(t *testing.T, tab *Table) {
	t.Helper()
	if err := invariantErr(tab); err != nil {
		t.Fatal(err)
	}
}

// invariantErr reports the first broken structural invariant:
//  1. every non-zero key word is a key hashing to that bucket (b1 or b2),
//  2. no key appears twice,
//  3. Len equals the non-zero key words plus key 0's slot if it is set.
func invariantErr(tab *Table) error {
	arr := tab.arr.Load()
	seen := make(map[uint64]uint64)
	var stored uint64
	for b := uint64(0); b < arr.buckets; b++ {
		for s := 0; s < int(tab.assoc); s++ {
			k := arr.loadKey(arr.slotIdx(b, s, tab.assoc))
			if k == 0 {
				continue
			}
			stored++
			b1, b2 := hashfn.TwoBuckets(tab.hash(k), arr.buckets)
			if b != b1 && b != b2 {
				return fmt.Errorf("key %#x stored in bucket %d, candidates are %d/%d", k, b, b1, b2)
			}
			if prev, dup := seen[k]; dup {
				return fmt.Errorf("key %#x stored twice: buckets %d and %d", k, prev, b)
			}
			seen[k] = b
		}
	}
	if arr.hasZero() {
		stored++
	}
	if got := tab.Len(); got != stored {
		return fmt.Errorf("Len = %d but %d entries stored", got, stored)
	}
	return nil
}

func TestInvariantsAfterFill(t *testing.T) {
	for _, search := range []SearchMode{SearchBFS, SearchDFS} {
		o := testOptions(1 << 12)
		o.Search = search
		tab := MustNewTable(o)
		gen := workload.NewSequentialKeys(1)
		for {
			if err := tab.Insert(gen.NextKey(), 1); err != nil {
				break
			}
		}
		checkInvariants(t, tab)
	}
}

func TestInvariantsQuickRandomOps(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16
	}
	check := func(ops []op) bool {
		// Four buckets: a few dozen ops fill them, so inserts displace.
		tab := MustNewTable(testOptions(32))
		for _, x := range ops {
			k := uint64(x.Key) % 700 // keyspace larger than table (ErrFull paths), key 0 included
			switch x.Kind % 4 {
			case 0, 1:
				_ = tab.Upsert(k, k)
			case 2:
				tab.Delete(k)
			case 3:
				_ = tab.Insert(k, k)
			}
		}
		// Structural invariants must hold regardless of the op sequence.
		if err := invariantErr(tab); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBFSPathBound verifies the Eq. 2 bound holds for every search the
// table ever performs across associativities (property over fills).
func TestBFSPathBound(t *testing.T) {
	for _, assoc := range []int{2, 4, 8, 16} {
		o := testOptions(1 << 12)
		o.Assoc = assoc
		buckets := uint64(2)
		for buckets*uint64(assoc) < 1<<12 {
			buckets <<= 1
		}
		o.Buckets = buckets
		tab := MustNewTable(o)
		gen := workload.NewSequentialKeys(1)
		for {
			if err := tab.Insert(gen.NextKey(), 1); err != nil {
				break
			}
		}
		bound := uint64(MaxBFSPathLen(assoc, o.MaxSearchSlots))
		if got := tab.Stats().MaxPathLen; got > bound {
			t.Fatalf("assoc %d: max path %d exceeds Eq.2 bound %d", assoc, got, bound)
		}
	}
}

// --- failure injection: path invalidation ---

// TestDisplaceValidation injects the three staleness conditions §4.3.1's
// validated execution must catch: source key moved, source key deleted,
// destination slot stolen.
func TestDisplaceValidation(t *testing.T) {
	o := testOptions(1 << 10)
	tab := MustNewTable(o)
	arr := tab.arr.Load()

	// Manufacture a key in bucket b with a free alternate bucket.
	key := uint64(12345)
	b1, b2 := hashfn.TwoBuckets(tab.hash(key), arr.buckets)
	if err := tab.Insert(key, 1); err != nil {
		t.Fatal(err)
	}
	// Locate the slot it landed in.
	var srcB uint64
	var srcS int
	if i, ok := tab.findIn(arr, b1, key); ok {
		srcB, srcS = b1, int(i-b1*tab.assoc)
	} else if i, ok := tab.findIn(arr, b2, key); ok {
		srcB, srcS = b2, int(i-b2*tab.assoc)
	} else {
		t.Fatal("inserted key not found")
	}
	dstB := hashfn.AltBucket(tab.hash(key), arr.buckets, srcB)

	// Happy path: displacement succeeds.
	if !tab.displace(arr, pathEntry{bucket: srcB, slot: srcS, key: key}, pathEntry{bucket: dstB, slot: 0}) {
		t.Fatal("valid displacement rejected")
	}
	// Now the recorded source is stale (the key moved): must be rejected.
	if tab.displace(arr, pathEntry{bucket: srcB, slot: srcS, key: key}, pathEntry{bucket: dstB, slot: 1}) {
		t.Fatal("stale source accepted")
	}
	// Occupied destination must be rejected (key now lives at dstB slot 0).
	if !tab.Delete(key) {
		t.Fatal("delete failed")
	}
	if err := tab.Insert(key, 1); err != nil {
		t.Fatal(err)
	}
	// Find it again and aim its displacement at an occupied slot.
	var nb uint64
	var ns int
	if i, ok := tab.findIn(arr, b1, key); ok {
		nb, ns = b1, int(i-b1*tab.assoc)
	} else if i, ok := tab.findIn(arr, b2, key); ok {
		nb, ns = b2, int(i-b2*tab.assoc)
	} else {
		t.Fatal("key not found after reinsert")
	}
	blocker := uint64(999)
	alt := hashfn.AltBucket(tab.hash(key), arr.buckets, nb)
	tab.insertAtForTest(arr, alt, 0, blocker)
	if tab.displace(arr, pathEntry{bucket: nb, slot: ns, key: key}, pathEntry{bucket: alt, slot: 0}) {
		t.Fatal("displacement into occupied slot accepted")
	}
}

// insertAtForTest force-places a key (test helper bypassing hashing).
func (t *Table) insertAtForTest(arr *arrays, b uint64, s int, key uint64) {
	l1, l2 := t.lockPair(b, b)
	defer t.unlockPair(l1, l2)
	if i := arr.slotIdx(b, s, t.assoc); arr.loadKey(i) == 0 {
		t.placeAt(arr, i, key, []uint64{0})
		t.size.Add(b, 1)
	}
}

// TestExecutePathRestart verifies that an invalidated path surfaces as
// attemptRetry and that write() then restarts and succeeds.
func TestExecutePathRestart(t *testing.T) {
	o := testOptions(1 << 10)
	tab := MustNewTable(o)
	arr := tab.arr.Load()
	// A fabricated path whose expected key is wrong must return retry.
	fake := []pathEntry{
		{bucket: 0, slot: 0, key: 0xDEAD}, // nothing there
		{bucket: 1, slot: 0},
	}
	if res := tab.executePath(arr, fake, 0, 1, 42, []uint64{0}, modeInsert); res != attemptRetry {
		t.Fatalf("executePath on fake path = %v, want attemptRetry", res)
	}
	// The public path still works afterwards.
	if err := tab.Insert(42, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Lookup(42); !ok || v != 1 {
		t.Fatal("table corrupted by rejected path")
	}
	checkInvariants(t, tab)
}

// TestStatsCounters verifies the operational counters move as specified.
func TestStatsCounters(t *testing.T) {
	o := testOptions(256)
	tab := MustNewTable(o)
	gen := workload.NewSequentialKeys(1)
	for {
		if err := tab.Insert(gen.NextKey(), 1); err != nil {
			break
		}
	}
	st := tab.Stats()
	if st.Searches == 0 || st.Displacements == 0 {
		t.Fatalf("expected nonzero search/displacement counters after a full fill: %+v", st)
	}
	if st.MaxPathLen == 0 {
		t.Fatalf("MaxPathLen not recorded: %+v", st)
	}
	tab.ResetStats()
	if s := tab.Stats(); s != (Stats{}) {
		t.Fatalf("ResetStats left %+v", s)
	}
}
