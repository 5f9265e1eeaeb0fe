// Package allocfreeimpl is the allocfree golden's importer: it implements
// allocfreetest.Backend, whose hot-path caller cannot import it.
package allocfreeimpl

import "allocfreetest"

type store struct{ m map[string]int }

func (s *store) Put(k string) {
	s.m[k] = 1 // want `map write \(.*\) reachable from //cuckoo:hotpath root allocfreetest\.BadUpward: allocfreetest\.BadUpward -> \(\*store\)\.Put`
}

var _ allocfreetest.Backend = (*store)(nil)
