package server

import (
	"fmt"
	"testing"
)

// TestOnePinPerKeyedOp counts the shard stripe acquisitions each keyed
// operation makes on a settled cache. A pin takes the stripes of a key's two
// candidate buckets, which are never one stripe (generic's altOf), so one
// pin reads 2: GET, SET, DEL, REPLSET, REPLDEL, an INCR of a cold key and a
// CAS each make their check and their write in one table Update, and a
// two-key INCR EXEC, its keys on two shards, loads and writes both under
// one section a shard, 2 each. A Get before a write, a re-read of the entry
// to keep its TTL, or a lock taken besides the pin shows here as a count of
// 4 or more for one key, 6 or more for the EXEC.
func TestOnePinPerKeyedOp(t *testing.T) {
	c, err := NewCache(8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 1000 {
		if err := c.Set(fmt.Sprintf("k%d", i), "7", 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range c.shards {
		for s.table.Growing() {
			s.table.Delete("no such key") // a write pays its share of the drain
		}
	}
	acquisitions := func() (n uint64) {
		for _, s := range c.shards {
			n += s.table.LockStats().Acquisitions
		}
		return n
	}
	ver := c.nextVersion() + 1e9 // newer than every local write the test makes
	// The EXEC's second key is the first on another shard than k8's: two
	// keys of one shard may share a stripe, which one section takes once.
	other := "k9"
	for i := 9; c.shardFor(other) == c.shardFor("k8"); i++ {
		other = fmt.Sprintf("k%d", i)
	}
	for _, tc := range []struct {
		name string
		op   func() error
		want uint64
	}{
		{"GET", func() error { return hit(c.Get("k1")) }, 2},
		{"SET", func() error { return c.Set("k2", "8", 0) }, 2},
		{"DEL", func() error { return hit("", c.Delete("k3", nil)) }, 2},
		{"REPLSET", func() error {
			applied, err := c.applyReplicaSet([]byte("k4"), []byte("9"), 0, ver, nil)
			if err != nil {
				return err
			}
			return hit("", applied)
		}, 2},
		{"REPLDEL", func() error { return hit("", c.applyReplicaDel("k5", ver+1, nil)) }, 2},
		{"INCR cold", func() error { return c.Incr("k6", 1, 0, nil) }, 2},
		{"CAS", func() error {
			res, err := c.CAS("k7", "7", "70", nil)
			if err == nil && res != StatusOK {
				err = fmt.Errorf("CAS result %v", res)
			}
			return err
		}, 2},
		{"EXEC 2-key INCR", func() error {
			for _, r := range c.Exec([]Op{
				{Kind: OpIncr, Key: "k8", Delta: 1},
				{Kind: OpIncr, Key: other, Delta: -1},
			}, nil) {
				if r.Status != StatusOK {
					return fmt.Errorf("EXEC result %+v", r)
				}
			}
			return nil
		}, 4},
	} {
		before := acquisitions()
		if err := tc.op(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := acquisitions() - before; got != tc.want {
			t.Errorf("%s took %d shard stripe acquisitions, want %d", tc.name, got, tc.want)
		}
	}
}

// hit is nil when ok, an error naming the missing outcome otherwise.
func hit(_ string, ok bool) error {
	if !ok {
		return fmt.Errorf("the op found nothing to act on")
	}
	return nil
}
