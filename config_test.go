package cuckoohash

import (
	"testing"

	"cuckoohash/internal/core"
)

// TestCoreOptionsIsSized pins the table NewMap builds: for every Config it
// is core.Sized at the configured width (8 by default) with fine-grained
// locking, BFS and prefetch, plus the configured value width and seed.
func TestCoreOptionsIsSized(t *testing.T) {
	const slots = 1 << 22
	for _, c := range []struct {
		cfg   Config
		assoc int
		vw    int
		seed  uint64
	}{
		{Config{Capacity: slots}, 8, 1, 0},
		{Config{Capacity: slots, Associativity: 4}, 4, 1, 0},
		{Config{Capacity: slots, Associativity: 8}, 8, 1, 0},
		{Config{Capacity: slots, Associativity: 16}, 16, 1, 0},
		{Config{Capacity: slots, ValueWords: 2}, 8, 2, 0},
		{Config{Capacity: slots, Seed: 7}, 8, 1, 7},
		{Config{Capacity: 1000, Associativity: 4}, 4, 1, 0},
	} {
		got, err := c.cfg.coreOptions()
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		want := core.Sized(c.cfg.Capacity, c.assoc)
		want.ValueWords, want.Seed = c.vw, c.seed
		if got != want {
			t.Errorf("%+v: coreOptions = %+v, want %+v", c.cfg, got, want)
		}
		if got.Locking != core.LockStriped || got.Search != core.SearchBFS || !got.Prefetch {
			t.Errorf("%+v: locking %v, search %v, prefetch %v; want striped BFS with prefetch", c.cfg, got.Locking, got.Search, got.Prefetch)
		}
	}
}
