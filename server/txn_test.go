package server

import (
	"strconv"
	"sync"
	"testing"
)

func TestExecReadYourWrites(t *testing.T) {
	c := newExecCache(t)
	if err := c.Set("a", "1", 0); err != nil {
		t.Fatal(err)
	}
	res := c.Exec([]Op{
		{Kind: OpGet, Key: "a"},
		{Kind: OpSet, Key: "a", Val: "2"},
		{Kind: OpGet, Key: "a"},
		{Kind: OpIncr, Key: "a", Delta: 10},
		{Kind: OpGet, Key: "a"},
		{Kind: OpGet, Key: "missing"},
	}, nil)
	want := []Result{
		{Status: StatusValue, Value: "1"},
		{Status: StatusOK},
		{Status: StatusValue, Value: "2"},
		{Status: StatusOK},
		{Status: StatusValue, Value: "12"},
		{Status: StatusMiss},
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res[%d] = %+v, want %+v", i, res[i], want[i])
		}
	}
	if got, _ := c.Get("a"); got != "12" {
		t.Fatalf("a = %q, want 12 after commit", got)
	}
	// An empty queue commits nothing.
	if res := c.Exec(nil, nil); res != nil || c.commits.Load() != 1 {
		t.Fatalf("empty Exec = %v with %d commits, want nil after 1", res, c.commits.Load())
	}
}

func TestExecCASAndDelete(t *testing.T) {
	c := newExecCache(t)
	for k, v := range map[string]string{"k": "v1", "m": "10"} {
		if err := c.Set(k, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	res := c.Exec([]Op{
		{Kind: OpCAS, Key: "k", Old: "nope", Val: "v2"},
		{Kind: OpCAS, Key: "k", Old: "v1", Val: "v2"},
		{Kind: OpDel, Key: "k"},
		{Kind: OpDel, Key: "k"},
		{Kind: OpCAS, Key: "k", Old: "v2", Val: "v3"},
		{Kind: OpSet, Key: "s", Val: "abc"},
		{Kind: OpIncr, Key: "s", Delta: 1},
		{Kind: OpMax, Key: "m", Delta: 5},
		{Kind: OpCAS + 1, Key: "m"},
	}, nil)
	want := []Status{StatusConflict, StatusOK, StatusOK, StatusMiss, StatusMiss, StatusOK, StatusErr, StatusOK, StatusErr}
	for i, w := range want {
		if res[i].Status != w {
			t.Fatalf("res[%d].Status = %v, want %v", i, res[i].Status, w)
		}
	}
	if res[6].Err != ErrNotInteger.Error() || res[8].Err != "unknown op" {
		t.Fatalf("errors %q and %q", res[6].Err, res[8].Err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("k survived transactional delete")
	}
	if got, _ := c.Get("m"); got != "10" {
		t.Fatalf("MAX 5 over 10 left %q", got)
	}
}

func TestExecAtomicTransfer(t *testing.T) {
	// Concurrent balance transfers preserve the invariant sum, and every
	// transaction commits exactly once.
	c := newExecCache(t)
	for _, k := range []string{"x", "y"} {
		if err := c.Set(k, "1000", 0); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, transfers = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < transfers; n++ {
				c.Exec([]Op{
					{Kind: OpIncr, Key: "x", Delta: -1},
					{Kind: OpIncr, Key: "y", Delta: 1},
				}, nil)
			}
		}()
	}
	wg.Wait()
	xv, _ := c.Get("x")
	yv, _ := c.Get("y")
	x, _ := strconv.Atoi(xv)
	y, _ := strconv.Atoi(yv)
	if x+y != 2000 {
		t.Fatalf("x+y = %d, want 2000 (x=%d y=%d)", x+y, x, y)
	}
	if y != 1000+goroutines*transfers {
		t.Fatalf("y = %d, want %d", y, 1000+goroutines*transfers)
	}
	if got := c.commits.Load(); got != goroutines*transfers {
		t.Fatalf("commits = %d, want %d", got, goroutines*transfers)
	}
}
