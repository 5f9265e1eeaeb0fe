// Package spantest is the dirty half of the allocfree span golden: a
// span-shaped type (Arm/Begin/End) whose methods violate the
// zero-cost-when-idle contract in each of the ways the analyzer flags.
package spantest

import (
	"fmt"
	"time"
)

type span struct {
	armed  bool
	stages [4]int64
	labels []string
	key    string
}

func (s *span) Arm() {
	if s == nil {
		return
	}
	s.armed = true
}

// Begin reads the clock before the armed guard, so even unarmed spans
// pay for the read.
func (s *span) Begin() int64 {
	now := time.Now().UnixNano() // want `span method Begin reads the clock \(time\.UnixNano\) before an armed guard`
	if s == nil || !s.armed {
		return 0
	}
	return now
}

// End is guarded correctly; the clock read after the early return is the
// legal idiom and must not be flagged.
func (s *span) End(stage int, t0 int64) {
	if t0 == 0 || s == nil {
		return
	}
	d := time.Now().UnixNano() - t0
	if d > 0 {
		s.stages[stage] += d
	}
}

// Label grows a slice on the record path: one allocation per request at
// full load.
func (s *span) Label(l string) {
	if s == nil || !s.armed {
		return
	}
	s.labels = append(s.labels, l) // want `allocation \(append\) .*span method .*Label`
}

// Scratch allocates fresh state per request.
func (s *span) Scratch(n int) {
	if s == nil {
		return
	}
	s.labels = make([]string, 0, n) // want `allocation \(make\) .*span method .*Scratch`
}

// Dump does I/O from a span method; reporting belongs to the slow path.
func (s *span) Dump() {
	if s == nil {
		return
	}
	fmt.Println(s.stages) // want `fmt\.Println .*span method .*Dump`
}

// SetKey copies the key into a string: an allocation per request that no
// make, new or append spells out.
func (s *span) SetKey(b []byte) {
	if s == nil {
		return
	}
	s.key = string(b) // want `string conversion .*span method .*SetKey`
}

// Sleep calls into time after a guard — allowed by the guard rule — but
// nothing here is flagged, documenting that the analyzer checks clock
// reads positionally, not semantically.
func (s *span) Sleep() {
	if s == nil || !s.armed {
		return
	}
	_ = time.Now()
}
