package server

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// TestGetWirePathZeroAlloc proves the steady-state read path — wire
// parse, dispatch, byte-key probe, reply — allocation-free end to end,
// hit and miss alike, for every verb that shares it: GET, GETV and a
// live-hit LEASE are projections of one lookup. This is the dynamic
// counterpart of the static allocfree proof over the //cuckoo:hotpath
// roots (parseRequest, dispatchFast, GetBytesTraced, generic.GetBytes,
// writeValue).
func TestGetWirePathZeroAlloc(t *testing.T) {
	c, err := NewCache(4, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("hot", "value-1", 0); err != nil {
		t.Fatal(err)
	}
	s := &Server{cache: c}
	var cs connState
	w := bufio.NewWriter(io.Discard)

	for _, tc := range []struct {
		name string
		line string
	}{
		{"GET hit", "GET hot"},
		{"GET miss", "GET absent"},
		{"GETV hit", "GETV hot"},
		{"GETV miss", "GETV absent"},
		{"LEASE live hit", "LEASE hot"},
	} {
		line := []byte(tc.line)
		allocs := testing.AllocsPerRun(500, func() {
			req, err := parseRequest(line)
			if err != nil {
				panic(err)
			}
			if !s.dispatchFast(req, w, &cs) {
				panic(tc.name + " not handled by the fast dispatch")
			}
			w.Reset(io.Discard)
		})
		if allocs != 0 {
			t.Errorf("%s wire round trip: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestSetWirePathAllocBound pins the SET path to its one inherent
// allocation: the item, the single copy of key and value that outlives
// the connection read buffer. Nothing else on the steady-state overwrite
// path may allocate, whatever the sizes — the second line's key and value
// are past the 32 bytes a non-escaping conversion gets on the stack.
func TestSetWirePathAllocBound(t *testing.T) {
	c, err := NewCache(4, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cache: c}
	var cs connState
	w := bufio.NewWriter(io.Discard)
	for _, text := range []string{
		"SET hot value-1",
		"SET " + strings.Repeat("k", 100) + " " + strings.Repeat("v", 300),
		"SETV hot 0 value-2",
	} {
		line := []byte(text)
		allocs := testing.AllocsPerRun(500, func() {
			req, err := parseRequest(line)
			if err != nil {
				panic(err)
			}
			if !s.dispatchFast(req, w, &cs) {
				panic("SET not handled by the fast dispatch")
			}
			w.Reset(io.Discard)
		})
		if allocs > 1 {
			t.Errorf("%.24q wire round trip: %.1f allocs/op, want <= 1 (the stored item)", text, allocs)
		}
	}
}
