// Package obslib is the clean half of the allocfree span golden: a span
// shaped exactly like internal/obs.Span, whose methods follow the
// contract — no allocation, clock reads only behind the nil/unarmed
// early-return guard. The analyzer must report nothing here.
package obslib

import "time"

type Span struct {
	armed  bool
	stages [4]int64
}

func (s *Span) Arm() {
	if s == nil {
		return
	}
	s.armed = true
	s.stages = [4]int64{}
}

func (s *Span) Armed() bool { return s != nil && s.armed }

func (s *Span) Begin() int64 {
	if s == nil || !s.armed {
		return 0
	}
	return time.Now().UnixNano()
}

func (s *Span) End(stage int, t0 int64) {
	if t0 == 0 || s == nil {
		return
	}
	d := time.Now().UnixNano() - t0
	if d > 0 {
		s.stages[stage] += d
	}
}

func (s *Span) Finish(total int64) {
	if s == nil || !s.armed {
		return
	}
	var sum int64
	for i := 0; i < len(s.stages)-1; i++ {
		sum += s.stages[i]
	}
	if rest := total - sum; rest > 0 {
		s.stages[len(s.stages)-1] = rest
	}
}

// Render is a free function, not a Span method: allocation is fine here,
// which is exactly why slow-path formatting lives off the type.
func Render(st [4]int64) []int64 {
	out := make([]int64, 0, len(st))
	for _, ns := range st {
		if ns > 0 {
			out = append(out, ns)
		}
	}
	return out
}
