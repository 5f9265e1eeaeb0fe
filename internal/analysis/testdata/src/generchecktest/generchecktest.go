// Package generchecktest is the genercheck golden for the incremental
// resize protocol: a bucket-array access derived from loadState needs a
// stateValid re-check first (R1), and nothing may touch a generation's
// arrays after markMigrated (R2). The stand-in types mirror the generic
// table structurally — the analyzer matches the protocol by method and
// field names, so these locals exercise exactly the real rules.
package generchecktest

type arrays struct {
	keys []uint64
	vals []uint64
	tags []uint8 // 0 = empty slot
}

type state struct {
	live *arrays
	olds []*gen
}

type gen struct {
	arr   *arrays
	marks []uint32
}

type table struct {
	cur *state
}

func (t *table) loadState() *state         { return t.cur }
func (t *table) stateValid(st *state) bool { return t.cur == st }

// keyAt is the slot-key accessor: in a keyed table the key comes out of
// the value, so a read through it is as much a generation-array access as
// indexing keys.
func (t *table) keyAt(a *arrays, i uint64) uint64 { return a.keys[i] }

// bucketTags is the bucket accessor: a bucket's tag bytes, which are also
// its occupancy.
func (t *table) bucketTags(a *arrays, b uint64) []uint8 { return a.tags[b*4 : b*4+4] }

// pin is the load and the re-check in one: it returns only a state that
// was still published once the key's stripes were held.
func (t *table) pin(h uint64) *state {
	for {
		st := t.loadState()
		if t.stateValid(st) {
			return st
		}
	}
}

// locate is the probe: handed the state, it reads tags, keys and values on
// its caller's behalf, so the call is the access R1 looks for.
func (t *table) locate(st *state, h uint64) (uint64, bool) {
	i := h % uint64(len(st.live.tags))
	return i, st.live.tags[i] != 0 && t.keyAt(st.live, i) == h
}

func (g *gen) markMigrated(b uint64) bool {
	w := &g.marks[b>>5]
	bit := uint32(1) << (b & 31)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

func goodValidatedRead(t *table, b uint64) uint64 {
	st := t.loadState()
	if !t.stateValid(st) {
		return 0
	}
	return st.live.vals[b]
}

func goodValidatedOldThenLive(t *table, b uint64) uint64 {
	st := t.loadState()
	if !t.stateValid(st) {
		return 0
	}
	for _, g := range st.olds {
		if g.arr.tags[b] != 0 {
			return g.arr.vals[b]
		}
	}
	return st.live.vals[b]
}

func badUnvalidatedRead(t *table, b uint64) uint64 {
	st := t.loadState()
	return st.live.vals[b] // want `generation array "vals" accessed without a preceding stateValid`
}

func badValidateTooLate(t *table, b uint64) uint64 {
	st := t.loadState()
	v := st.live.vals[b] // want `generation array "vals" accessed without a preceding stateValid`
	if !t.stateValid(st) {
		return 0
	}
	return v
}

func badUnvalidatedWrite(t *table, b uint64) {
	st := t.loadState()
	st.live.tags[b] = 0 // want `generation array "tags" accessed without a preceding stateValid`
}

func badUnvalidatedTagAndKey(t *table, b uint64, tag uint8) bool {
	st := t.loadState()
	return st.live.tags[b] == tag && // want `generation array "tags" accessed without a preceding stateValid`
		t.keyAt(st.live, b) == 7 // want `generation array "keyAt" accessed without a preceding stateValid`
}

func badUnvalidatedBucket(t *table, b uint64) int {
	st := t.loadState()
	n := len(st.live.tags[b*4 : b*4+4])            // want `generation array "tags" accessed without a preceding stateValid`
	for _, tag := range t.bucketTags(st.live, b) { // want `generation array "bucketTags" accessed without a preceding stateValid`
		if tag != 0 {
			n++
		}
	}
	return n
}

func goodValidatedTagAndKey(t *table, b uint64, tag uint8) bool {
	st := t.loadState()
	if !t.stateValid(st) {
		return false
	}
	return st.live.tags[b] == tag && t.keyAt(st.live, b) == 7
}

func goodPinnedLocate(t *table, h uint64) uint64 {
	st := t.pin(h)
	if i, ok := t.locate(st, h); ok {
		return st.live.vals[i]
	}
	return 0
}

func badUnvalidatedLocate(t *table, h uint64) bool {
	st := t.loadState()
	_, ok := t.locate(st, h) // want `generation array "locate" accessed without a preceding stateValid`
	return ok
}

// goodHelperNoLoad never loads the state itself: the arrays were handed
// in by a caller who validated, so R1 does not apply (this is why the
// table's Range/Clear copy buckets through free-function helpers).
func goodHelperNoLoad(a *arrays, i uint64) uint64 {
	return a.keys[i]
}

func goodMarkAfterAccess(t *table, g *gen, b uint64) {
	st := t.loadState()
	if !t.stateValid(st) {
		return
	}
	if g.arr.tags[b] == 0 {
		g.markMigrated(b)
	}
}

func badAccessAfterMark(t *table, g *gen, b uint64) {
	st := t.loadState()
	if !t.stateValid(st) {
		return
	}
	if g.markMigrated(b) {
		g.arr.tags[b] = 0 // want `generation array "tags" accessed after markMigrated`
	}
}

// badMarkThenReadEvenWithoutLoad: R2 holds regardless of how the arrays
// were obtained — the mark itself is the point of no return.
func badMarkThenReadEvenWithoutLoad(g *gen, b uint64) uint64 {
	g.markMigrated(b)
	return g.arr.vals[b] // want `generation array "vals" accessed after markMigrated`
}
