package generic

import (
	"fmt"
	"testing"
)

// TestStoreTakesEmptierBucket pins where a stored key that needs no path
// lands: in the emptier of its two live buckets, so a fuller first bucket
// sends it to the second, and in the first on a tie.
func TestStoreTakesEmptierBucket(t *testing.T) {
	cfg := Config{InitialCapacity: 256, MaxCapacity: 256, Associativity: 4, DisableAutoGrow: true}
	for _, tc := range []struct {
		name   string
		fill   int // 1: a key in k's first bucket; 2: and one in its second
		second bool
	}{
		{"fuller first bucket", 1, true},
		{"tie", 2, false},
		{"both empty", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachConstruction(t, cfg, func(t *testing.T, tab *Table[string, rec]) {
				st := tab.loadState()
				n := st.live.buckets
				pair := func(k string) (uint64, uint64) { return twoBuckets(tab.hash(k), n) }
				// k's buckets are distinct; x shares k's first bucket and y
				// has k's second as its first, and neither has the other.
				var k, x, y string
				for i := 0; k == ""; i++ {
					if b1, b2 := pair(fmt.Sprint("k", i)); b1 != b2 {
						k = fmt.Sprint("k", i)
					}
				}
				k1, k2 := pair(k)
				for i := 0; x == "" || y == ""; i++ {
					c := fmt.Sprint("c", i)
					switch c1, c2 := pair(c); {
					case x == "" && c1 == k1 && c2 != k2:
						x = c
					case y == "" && c1 == k2 && c2 != k1:
						y = c
					}
				}
				for _, f := range []string{x, y}[:tc.fill] {
					if err := tab.Insert(f, rec{key: f}); err != nil {
						t.Fatal(err)
					}
				}
				if err := tab.Upsert(k, rec{key: k, n: 1}); err != nil {
					t.Fatal(err)
				}
				want := map[bool]uint64{false: k1, true: k2}[tc.second]
				if _, b, _, ok := tab.locate(st, tab.hash(k), func(s string) bool { return s == k }); !ok || b != want {
					t.Errorf("key landed in bucket %d (found %v), want %d (buckets %d, %d)", b, ok, want, k1, k2)
				}
				checkSlots(t, tab)
			})
		})
	}
}
