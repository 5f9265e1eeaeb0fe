package bench

import (
	"testing"

	"cuckoohash/internal/workload"
)

func TestFillDriverCountsAndWindows(t *testing.T) {
	s := CuckooPlusFG()
	tab := s.New(1<<12, 1, 2, 7)
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
	tab := s.New(1<<12, 1, 2, 7)
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
	if tab.Len() != 2000 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if _, ok := tab.Lookup(uint64(1)<<32 | 3); !ok {
		t.Fatal("lookup through wrapper failed")
	}
	if !tab.Delete(uint64(1)<<32 | 3) {
		t.Fatal("delete through wrapper failed")
	}
}
