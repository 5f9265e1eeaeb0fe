package server

import (
	"bufio"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// allocsPerOp is the mean number of heap allocations per call of op over
// runs calls, after one warm-up call, at one P: testing.AllocsPerRun
// without the rounding. That one's integer mean reads an allocation made
// on every other call as 0, and this one as 0.5. The mean is the least of
// five rounds, since an allocation some other goroutine of the test binary
// makes meanwhile (the race runtime's, a background sweep's) only adds to
// it, where one op makes its own in every round.
func allocsPerOp(runs int, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	least := math.Inf(1)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			op()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return least
}

// wireOp returns one wire round trip of text — parse, fast dispatch,
// reply into a discarded buffer — as the allocation tests below run it.
func wireOp(s *Server, text string) func() {
	var cs connState
	w := bufio.NewWriter(io.Discard)
	line := []byte(text)
	return func() {
		req, err := parseRequest(line)
		if err != nil {
			panic(err)
		}
		if !s.dispatchFast(req, w, &cs) {
			panic(text + " not handled by the fast dispatch")
		}
		w.Reset(io.Discard)
	}
}

// TestGetWirePathZeroAlloc proves the steady-state read path — wire
// parse, dispatch, byte-key probe, reply — allocation-free end to end,
// hit and miss alike, for every verb that shares it: GET, GETV and a
// live-hit LEASE are projections of one lookup. This is the dynamic
// counterpart of the static allocfree proof over the //cuckoo:hotpath
// roots (parseRequest, dispatchFast, GetBytesTraced, generic.GetBytes,
// writeValue). The last case is the in-process entry point: Cache.Get
// converts its string key to bytes for the same lookup, and that
// conversion must stay on the stack.
func TestGetWirePathZeroAlloc(t *testing.T) {
	c, err := NewCache(4, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("hot", "value-1", 0); err != nil {
		t.Fatal(err)
	}
	s := &Server{cache: c}
	key := strings.Clone("hot") // an owned string, not a constant

	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"GET hit", wireOp(s, "GET hot")},
		{"GET miss", wireOp(s, "GET absent")},
		{"GETV hit", wireOp(s, "GETV hot")},
		{"GETV miss", wireOp(s, "GETV absent")},
		{"LEASE live hit", wireOp(s, "LEASE hot")},
		{"Cache.Get, owned string key", func() {
			if _, ok := c.Get(key); !ok {
				panic("Cache.Get missed a resident key")
			}
		}},
	} {
		if allocs := allocsPerOp(500, tc.op); allocs != 0 {
			t.Errorf("%s: %.3f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestSetWirePathAllocBound pins the SET path to its one inherent
// allocation: the item, the single copy of key and value that outlives
// the connection read buffer. Nothing else on the steady-state overwrite
// path may allocate, whatever the sizes — the second line's key and value
// are past the 32 bytes a non-escaping conversion gets on the stack — and
// Cache.Set, the in-process entry point, is held to the same one. So are
// the counter verbs and CAS overwriting a key: each runs its op in the one
// table update that stores the item it built, and its decision and step
// are closures that must stay on the stack.
func TestSetWirePathAllocBound(t *testing.T) {
	c, err := NewCache(4, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cache: c}
	for _, k := range []string{"ctr", "cas"} {
		if err := c.Set(k, "7", 0); err != nil {
			t.Fatal(err)
		}
	}
	delta := int64(-1)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"SET", wireOp(s, "SET hot value-1")},
		{"SET, long key and value", wireOp(s, "SET "+strings.Repeat("k", 100)+" "+strings.Repeat("v", 300))},
		{"SETV", wireOp(s, "SETV hot 0 value-2")},
		{"Cache.Set, string overwrite", func() {
			if err := c.Set("hot", "value-3", 0); err != nil {
				panic(err)
			}
		}},
		{"Cache.Incr, existing key", func() {
			delta = -delta // 7 and 8 in turn: strconv has both strings ready
			if err := c.Incr("ctr", delta, 0, nil); err != nil {
				panic(err)
			}
		}},
		{"Cache.CAS, existing key", func() {
			if res, err := c.CAS("cas", "7", "7", nil); err != nil || res != StatusOK {
				panic("CAS did not store")
			}
		}},
	} {
		if allocs := allocsPerOp(500, tc.op); allocs > 1 {
			t.Errorf("%s: %.3f allocs/op, want <= 1 (the stored item)", tc.name, allocs)
		}
	}
}
