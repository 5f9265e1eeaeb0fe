package client_test

// Pool.GetOrFill against a real server: the miss-lease protocol must
// collapse a thundering herd to a single backend fill while every
// caller still gets the value.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuckoohash/client"
)

// TestGetOrFillSingleFlight launches a herd of concurrent GetOrFill
// calls for one missing key and counts backend fills: exactly one
// caller may win the lease and run its fill function.
func TestGetOrFillSingleFlight(t *testing.T) {
	s := startServer(t)
	p := client.NewPool(s.Addr().String(), 8)
	defer p.Close()

	const herd = 16
	var fills atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, herd)
	vals := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = p.GetOrFill("herd-key", 0, false, func() (string, error) {
				fills.Add(1)
				time.Sleep(10 * time.Millisecond) // a slow origin, to widen the race
				return "origin-value", nil
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i] != "origin-value" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
	}
	if n := fills.Load(); n != 1 {
		t.Fatalf("herd of %d triggered %d backend fills, want exactly 1", herd, n)
	}

	st := p.Stats()
	if st.LeaseFills != 1 {
		t.Fatalf("pool counted %d lease fills, want 1", st.LeaseFills)
	}
	if st.LeaseWaits == 0 {
		t.Fatal("no caller ever waited; the herd never raced")
	}

	// The filled value is now a plain cache hit for everyone.
	if v, err := p.GetOrFill("herd-key", 0, false, func() (string, error) {
		t.Error("fill ran for a present key")
		return "", nil
	}); err != nil || v != "origin-value" {
		t.Fatalf("post-fill read = %q/%v", v, err)
	}

	// A failed fill is returned to its caller as is.
	errOrigin := errors.New("origin down")
	if _, err := p.GetOrFill("fail-key", 0, false, func() (string, error) { return "", errOrigin }); !errors.Is(err, errOrigin) {
		t.Fatalf("failed fill returned %v, want the fill's error", err)
	}

	// While another caller holds the lease on an expired key, acceptStale
	// takes the expired copy the server still holds, without a fill.
	if err := p.Set("stale-key", "old", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rep, err := c.Lease("stale-key"); err != nil || rep.Lease == 0 {
		t.Fatalf("first LEASE on the expired key = %+v/%v, want a grant", rep, err)
	}
	if v, err := p.GetOrFill("stale-key", 0, true, func() (string, error) {
		t.Error("fill ran while another caller held the lease")
		return "", nil
	}); err != nil || v != "old" {
		t.Fatalf("stale read = %q/%v, want the expired copy", v, err)
	}
	if n := p.Stats().LeaseStaleServed; n != 1 {
		t.Fatalf("pool counted %d stale copies served, want 1", n)
	}
}
