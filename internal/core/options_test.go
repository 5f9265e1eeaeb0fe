package core

import (
	"strings"
	"testing"
)

func TestOptionsValidation(t *testing.T) {
	base := Defaults(1 << 10)
	cases := []struct {
		name   string
		mutate func(*Options)
		errSub string
	}{
		{"zero buckets", func(o *Options) { o.Buckets = 0 }, "Buckets"},
		{"non-pow2 buckets", func(o *Options) { o.Buckets = 100 }, "Buckets"},
		{"assoc 0", func(o *Options) { o.Assoc = 0 }, "Assoc"},
		{"assoc 33", func(o *Options) { o.Assoc = 33 }, "Assoc"},
		{"value words 0", func(o *Options) { o.ValueWords = 0 }, "ValueWords"},
		{"stripes 0", func(o *Options) { o.Stripes = 0 }, "Stripes"},
		{"stripes non-pow2", func(o *Options) { o.Stripes = 100 }, "Stripes"},
		{"tiny search budget", func(o *Options) { o.MaxSearchSlots = 1 }, "MaxSearchSlots"},
		{"search budget 100", func(o *Options) { o.MaxSearchSlots = 100 }, ""}, // valid
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := base
			c.mutate(&o)
			_, err := NewTable(o)
			_, txErr := NewTxTable(o, 0, defaultHTMConfigForTest())
			if c.errSub == "" {
				if err != nil || txErr != nil {
					t.Fatalf("valid options rejected: %v; TxTable: %v", err, txErr)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.errSub) {
				t.Fatalf("err = %v, want mention of %s", err, c.errSub)
			}
			if txErr == nil {
				t.Fatal("TxTable accepted invalid options")
			}
		})
	}
}

func TestMustNewTablePanics(t *testing.T) {
	for name, mustNew := range map[string]func(){
		"MustNewTable":   func() { MustNewTable(Options{}) },
		"MustNewTxTable": func() { MustNewTxTable(Options{}, 0, defaultHTMConfigForTest()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on bad options", name)
				}
			}()
			mustNew()
		}()
	}
}

// TestDefaultsShape checks that Sized provisions the fewest power-of-two
// buckets that hold the slots and that Defaults is Sized at 8 ways.
func TestDefaultsShape(t *testing.T) {
	for _, slots := range []uint64{1, 100, 1 << 10, 1<<20 + 1} {
		if Defaults(slots) != Sized(slots, 8) {
			t.Fatalf("Defaults(%d) = %+v, Sized(%d, 8) = %+v", slots, Defaults(slots), slots, Sized(slots, 8))
		}
		for _, assoc := range []int{1, 4, 8, 16} {
			o := Sized(slots, assoc)
			if err := o.validate(); err != nil {
				t.Fatalf("Sized(%d, %d) invalid: %v", slots, assoc, err)
			}
			if o.Buckets*uint64(assoc) < slots {
				t.Fatalf("Sized(%d, %d) provisions only %d slots", slots, assoc, o.Buckets*uint64(assoc))
			}
			if o.Buckets > 2 && o.Buckets/2*uint64(assoc) >= slots {
				t.Fatalf("Sized(%d, %d) = %d buckets, half would do", slots, assoc, o.Buckets)
			}
		}
	}
}

func TestMaxBFSPathLenTable(t *testing.T) {
	// The values the paper quotes: B=4, M=2000 -> 5; and our defaults
	// B=8, M=2000 -> 4.
	cases := []struct{ b, m, want int }{
		{4, 2000, 5},
		{8, 2000, 4},
		{16, 2000, 3},
		{2, 2000, 9},
		{1, 10, 5}, // degenerate: chain of m/2
	}
	for _, c := range cases {
		if got := MaxBFSPathLen(c.b, c.m); got != c.want {
			t.Errorf("MaxBFSPathLen(%d,%d) = %d, want %d", c.b, c.m, got, c.want)
		}
	}
}
