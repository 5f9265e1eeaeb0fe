package bench

import (
	"testing"

	"cuckoohash/internal/core"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

func TestFillDriverCountsAndWindows(t *testing.T) {
	s := CuckooPlusFG()
	tab := s.New(1<<12, 1, 2, 7).(coreKV)
	res := Fill(tab, FillSpec{
		Threads: 2, Mix: workload.InsertOnly,
		TargetLoad: 0.95, Slots: 1 << 12, Seed: 7,
		WindowBounds: []float64{0, 0.75, 0.90, 0.95},
	})
	if res.Overall <= 0 {
		t.Fatalf("Overall = %v", res.Overall)
	}
	lf := float64(tab.Len()) / float64(tab.Cap())
	if lf < 0.94 {
		t.Fatalf("fill stopped at load factor %.3f", lf)
	}
	for _, w := range []string{"0.00-0.95", "0.75-0.90", "0.90-0.95"} {
		if res.Windows[w] <= 0 {
			t.Fatalf("window %s = %v (windows: %v)", w, res.Windows[w], res.Windows)
		}
	}
}

func TestFillDriverMixedCountsLookups(t *testing.T) {
	s := CuckooPlusFG()
	tab := s.New(1<<12, 1, 2, 7).(coreKV)
	res := Fill(tab, FillSpec{
		Threads: 2, Mix: workload.Mix1090,
		TargetLoad: 0.9, Slots: 1 << 12, Seed: 7,
	})
	inserts := tab.Len()
	if res.Ops < 5*inserts {
		t.Fatalf("10%%-insert mix did ops=%d for inserts=%d; lookups not counted?", res.Ops, inserts)
	}
}

func TestLookupDriver(t *testing.T) {
	s := CuckooPlusFG()
	tab := s.New(1<<12, 1, 4, 7)
	counts := PreFill(tab, 1<<12, 0.95, 4, 7)
	var total uint64
	for _, c := range counts {
		total += c
	}
	if float64(total) < 0.94*float64(1<<12) {
		t.Fatalf("prefill only reached %d keys", total)
	}
	res := Lookups(tab, LookupSpec{Threads: 4, OpsPerThread: 1 << 10, Seed: 7}, counts)
	if res.Ops != 4<<10 {
		t.Fatalf("Ops = %d", res.Ops)
	}
	if res.Overall <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestWindowKey(t *testing.T) {
	cases := []struct {
		lo, hi float64
		want   string
	}{
		{0, 0.95, "0.00-0.95"},
		{0.75, 0.90, "0.75-0.90"},
		{0.9, 0.95, "0.90-0.95"},
		{0.3, 0.4, "0.30-0.40"},
	}
	for _, c := range cases {
		if got := windowKey(c.lo, c.hi); got != c.want {
			t.Fatalf("windowKey(%v,%v) = %q want %q", c.lo, c.hi, got, c.want)
		}
	}
}

func TestLockWrappedSerializes(t *testing.T) {
	s := LockWrapped("locked dense", Dense())
	tab := s.New(1<<10, 1, 4, 7)
	// Concurrent access through the wrapper must be safe for the
	// single-threaded inner table.
	done := make(chan bool, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			base := uint64(w+1) << 32
			for i := uint64(0); i < 500; i++ {
				if err := tab.Insert(base|i, i); err != nil {
					done <- false
					return
				}
			}
			done <- true
		}(w)
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Fatal("insert failed")
		}
	}
	for w := uint64(1); w <= 4; w++ {
		for i := uint64(0); i < 500; i++ {
			if v, ok := tab.Lookup(w<<32 | i); !ok || v != i {
				t.Fatalf("lookup of %#x through wrapper = %d, %v", w<<32|i, v, ok)
			}
		}
	}
	if !tab.Delete(uint64(1)<<32 | 3) {
		t.Fatal("delete through wrapper failed")
	}
}

// TestEverySchemeStoresWhatItTakes runs each figure scheme through the KV
// interface: every inserted key reads back its value, an absent key
// misses, and a deleted key is gone (the transactional chained map has no
// Delete and says so).
func TestEverySchemeStoresWhatItTakes(t *testing.T) {
	for _, s := range []Scheme{
		CuckooPlusFG(), CuckooPlusGlobal(),
		CuckooPlusVariant("cuckoo+ DFS", core.LockStriped, core.SearchDFS, false),
		CuckooPlusAssoc(4, "4-way"), CuckooPlusTSX("cuckoo+ TSX", htm.PolicyTuned, core.SearchBFS, true),
		Memc3(4), Memc3TSX("cuckoo TSX", htm.PolicyGlibc, 4),
		TBB(), Unordered(), UnorderedTSX("unordered_map TSX", htm.PolicyTuned),
		Dense(), DenseTSX("dense_hash_map TSX", htm.PolicyTuned), LockWrapped("locked dense", Dense()),
	} {
		tab := s.New(1<<10, 1, 1, 7)
		for k := uint64(1); k <= 100; k++ {
			if err := tab.Insert(k, k*3); err != nil {
				t.Fatalf("%s: Insert(%d) = %v", s.Name, k, err)
			}
		}
		for k := uint64(1); k <= 100; k++ {
			if v, ok := tab.Lookup(k); !ok || v != k*3 {
				t.Fatalf("%s: Lookup(%d) = %d, %v", s.Name, k, v, ok)
			}
		}
		if _, ok := tab.Lookup(1000); ok {
			t.Fatalf("%s: absent key found", s.Name)
		}
		_, noDelete := tab.(chainedTxKV)
		if deleted := tab.Delete(7); deleted == noDelete {
			t.Fatalf("%s: Delete = %v", s.Name, deleted)
		}
		if _, ok := tab.Lookup(7); ok != noDelete {
			t.Fatalf("%s: after Delete, Lookup found = %v", s.Name, ok)
		}
	}
}
