package memc3

import (
	"testing"

	"cuckoohash/internal/htm"
	"cuckoohash/internal/workload"
)

// TestFillLosesNoKey fills each table until ErrFull and then looks every
// accepted key up again. Near full the random walk is long enough to cross
// itself; a crossed path executed blindly moves a key into a bucket that is
// not one of its own two, where no lookup finds it (31 of 3 985 keys on
// Table before the path was validated).
func TestFillLosesNoKey(t *testing.T) {
	o := Defaults(1 << 12)
	tables := map[string]interface {
		Insert(key, val uint64) error
		Lookup(key uint64) (uint64, bool)
	}{
		"Table":   MustNew(o),
		"TxTable": MustNewTxTable(o, htm.PolicyTuned, htm.DefaultConfig()),
	}
	for name, tab := range tables {
		t.Run(name, func(t *testing.T) {
			gen := workload.NewSequentialKeys(1 << 20)
			var keys []uint64
			for {
				k := gen.NextKey()
				if err := tab.Insert(k, k*3); err != nil {
					if err != ErrFull {
						t.Fatalf("Insert(%d): %v", k, err)
					}
					break
				}
				keys = append(keys, k)
			}
			if lf := float64(len(keys)) / float64(o.Buckets*uint64(o.Assoc)); lf < 0.9 {
				t.Fatalf("full at load factor %.3f: the walk never got long", lf)
			}
			for _, k := range keys {
				if v, ok := tab.Lookup(k); !ok || v != k*3 {
					t.Fatalf("Lookup(%d) = %d,%v after a fill of %d keys", k, v, ok, len(keys))
				}
			}
		})
	}
}
