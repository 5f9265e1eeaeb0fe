package txarena_test

import (
	"errors"
	"math"
	"testing"

	"cuckoohash/internal/chained"
	"cuckoohash/internal/core"
	"cuckoohash/internal/htm"
	"cuckoohash/internal/openaddr"
	"cuckoohash/internal/txarena"
)

// TestArenaBoundAllConstructors: the three HTM-instrumented tables address
// their arena with uint32 words. Each sizes it from caller input, and each
// must refuse a size whose addresses would wrap — before allocating it —
// and still accept a modest one. Only core.NewTxTable used to check.
func TestArenaBoundAllConstructors(t *testing.T) {
	cfg := htm.DefaultConfig()
	// The issue's example: 2^24 buckets of 8 slots with 1 KiB values is
	// 1.7e10 words, which truncated to uint32 aliases bucket 2^22 onto
	// bucket 0.
	coreOpts := func(buckets uint64, valueWords int) core.Options {
		o := core.Defaults(buckets * 8)
		o.ValueWords = valueWords
		return o
	}
	cases := []struct {
		name  string
		build func(big bool) error
	}{
		{"core.NewTxTable", func(big bool) error {
			o := coreOpts(1<<8, 1)
			if big {
				o = coreOpts(1<<24, 128)
			}
			_, err := core.NewTxTable(o, htm.PolicyTuned, cfg)
			return err
		}},
		{"chained.NewTxMap", func(big bool) error {
			capacity := uint64(1 << 8)
			if big {
				capacity = 1 << 30 // three words a node
			}
			_, err := chained.NewTxMap(1<<8, capacity, 1, htm.PolicyTuned, false, cfg)
			return err
		}},
		{"openaddr.NewTxMap", func(big bool) error {
			capacity := uint64(1 << 8)
			if big {
				capacity = 1 << 30 // three words a slot
			}
			_, err := openaddr.NewTxMap(capacity, 1, htm.PolicyTuned, cfg)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.build(false); err != nil {
				t.Fatalf("modest arena refused: %v", err)
			}
			if err := c.build(true); !errors.Is(err, txarena.ErrTooLarge) {
				t.Fatalf("oversized arena: err = %v, want ErrTooLarge", err)
			}
		})
	}
}

// TestArenaBoundEdges pins the bound itself and the overflow guards in
// front of it: sizes are products of caller-supplied uint64s.
func TestArenaBoundEdges(t *testing.T) {
	cfg := htm.Config{ReadLines: 1, WriteLines: 1}
	var e txarena.Elided
	if err := e.Init(txarena.MaxWords+1, htm.PolicyNone, cfg); !errors.Is(err, txarena.ErrTooLarge) {
		t.Fatalf("MaxWords+1: err = %v, want ErrTooLarge", err)
	}
	for _, c := range []struct {
		buckets    uint64
		valueWords int
	}{
		{1 << 63, 1},     // buckets*stride would overflow to 0
		{2, math.MaxInt}, // assoc*valueWords would overflow (on 64-bit)
		{1 << 28, 1},     // 2^28 records of 16 words: over, far from overflow
		{1 << 31, 1 << 20},
	} {
		var b txarena.Buckets
		if err := b.Init(c.buckets, 4, c.valueWords, htm.PolicyNone, cfg); !errors.Is(err, txarena.ErrTooLarge) {
			t.Errorf("Init(%d buckets, %d value words): err = %v, want ErrTooLarge", c.buckets, c.valueWords, err)
		}
	}
}
