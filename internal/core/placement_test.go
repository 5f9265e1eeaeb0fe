package core

import (
	"fmt"
	"testing"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/htm"
)

// placementTable is a table TestInsertTakesEmptierBucket drives, with the
// bucket that holds a key.
type placementTable struct {
	name     string
	tab      oneSearchTable
	bucketOf func(key uint64) uint64
}

// TestInsertTakesEmptierBucket pins where a key that needs no path lands,
// on both backends with the lock taken early and late: in the emptier of
// its two buckets, so a fuller first bucket sends it to the second, and in
// the first on a tie.
func TestInsertTakesEmptierBucket(t *testing.T) {
	const slots = 1 << 8
	o := testOptions(slots)
	o.Assoc = 4
	o.Buckets = slots / 4
	pair := func(k uint64) (uint64, uint64) { return hashfn.TwoBuckets(hashfn.Uint64(k, o.Seed), o.Buckets) }
	// k's buckets are distinct; x shares k's first bucket and y has k's
	// second as its first, and neither has the other of k's buckets.
	var k, x, y uint64
	for k = 1; ; k++ {
		if b1, b2 := pair(k); b1 != b2 {
			break
		}
	}
	k1, k2 := pair(k)
	for c := k + 1; x == 0 || y == 0; c++ {
		switch c1, c2 := pair(c); {
		case x == 0 && c1 == k1 && c2 != k2:
			x = c
		case y == 0 && c1 == k2 && c2 != k1:
			y = c
		}
	}

	for _, tc := range []struct {
		name  string
		fill  []uint64 // inserted first, each into an empty pair: its first bucket
		wantB uint64
	}{
		{"fuller first bucket", []uint64{x}, k2},
		{"tie", []uint64{x, y}, k1},
		{"both empty", nil, k1},
	} {
		for _, locking := range []LockMode{LockStriped, LockGlobal, LockEarly} {
			o := o
			o.Locking = locking
			table := MustNewTable(o)
			tx := MustNewTxTable(o, htm.PolicyTuned, defaultHTMConfigForTest())
			for _, p := range []placementTable{
				{"Table", table, func(key uint64) uint64 {
					arr := table.arr.Load()
					i, _ := table.find(arr, k1, k2, key)
					return i / table.assoc
				}},
				{"TxTable", tx, func(key uint64) uint64 {
					for _, b := range [2]uint64{k1, k2} {
						for s, occ := 0, tx.Occ(b); occ != 0; s, occ = s+1, occ>>1 {
							if occ&1 != 0 && tx.Key(b, s) == key {
								return b
							}
						}
					}
					return ^uint64(0)
				}},
			} {
				lock := map[LockMode]string{LockStriped: "striped", LockGlobal: "late", LockEarly: "early"}[locking]
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, p.name, lock), func(t *testing.T) {
					for _, f := range tc.fill {
						if err := p.tab.Insert(f, f); err != nil {
							t.Fatal(err)
						}
					}
					if err := p.tab.Upsert(k, 1); err != nil {
						t.Fatal(err)
					}
					if got := p.bucketOf(k); got != tc.wantB {
						t.Errorf("key landed in bucket %d, want %d (buckets %d, %d)", got, tc.wantB, k1, k2)
					}
				})
			}
		}
	}
}
