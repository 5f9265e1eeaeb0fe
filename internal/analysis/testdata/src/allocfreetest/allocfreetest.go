// Package allocfreetest is the allocfree golden: //cuckoo:hotpath roots
// must prove allocation-free transitively, with the full root-to-site
// call chain in every diagnostic. //cuckoo:coldpath stops the walk, the
// compiler's free conversion positions are exempt, call-only closures
// stay on the stack, and generic instantiations share one Origin summary.
package allocfreetest

import (
	"strconv"
	"sync/atomic"
	"unsafe"
)

var sink func()

type table struct {
	hits atomic.Uint64
	idx  map[string]uint64
	vals []uint64
}

// use keeps a value live without allocating.
func use(s string) int { return len(s) }

//cuckoo:hotpath direct allocation sites are reported with the root name
func badDirect(t *table) {
	buf := make([]uint64, 4)        // want `allocation \(make\) \(make\) reachable from //cuckoo:hotpath root allocfreetest\.badDirect: allocfreetest\.badDirect`
	t.vals = append(t.vals, buf...) // want `allocation \(append\) \(append\) reachable from //cuckoo:hotpath root allocfreetest\.badDirect`
}

func growHelper(t *table, n uint64) {
	t.vals = append(t.vals, n) // want `allocation \(append\) \(append\) reachable from //cuckoo:hotpath root allocfreetest\.badViaHelper: allocfreetest\.badViaHelper -> allocfreetest\.growHelper`
}

//cuckoo:hotpath the chain names every frame from root to site
func badViaHelper(t *table, n uint64) {
	growHelper(t, n)
}

//cuckoo:hotpath the compiler's free conversion positions are exempt
func goodFreeConversions(t *table, key []byte) uint64 {
	if string(key) == "ping" { // free: comparison position
		return 1
	}
	return t.idx[string(key)] // free: map-index read position
}

//cuckoo:hotpath a materialized []byte-to-string conversion allocates
func badConversion(t *table, key []byte) int {
	s := string(key) // want `string conversion \(string\(\[\]byte\)\) reachable from //cuckoo:hotpath root allocfreetest\.badConversion`
	return use(s)
}

//cuckoo:coldpath the audited slow path: growth allocates by design
func grow(t *table) {
	t.vals = append(t.vals, make([]uint64, len(t.vals))...)
}

//cuckoo:hotpath a //cuckoo:coldpath callee stops the walk
func goodColdStop(t *table) {
	if len(t.vals) == 0 {
		grow(t)
	}
	t.hits.Add(1)
}

// runOnly invokes its argument and never stores it.
func runOnly(f func()) { f() }

//cuckoo:hotpath a literal handed to a call-only parameter stays on the stack
func goodStackClosure(t *table) {
	runOnly(func() { t.hits.Add(1) })
}

// relay hands its argument on to a call-only parameter, and relayDeep to
// itself: call-only all the way down.
func relay(f func()) { runOnly(f) }

func relayDeep(f func(), n int) {
	if n > 0 {
		relayDeep(f, n-1)
	}
	f()
}

//cuckoo:hotpath a literal relayed through call-only parameters stays on the stack
func goodRelayedClosure(t *table) {
	relay(func() { t.hits.Add(1) })
	relayDeep(func() { t.hits.Add(1) }, 3)
}

// keep stores its argument, and runAll's arguments share one variadic
// parameter.
func keep(f func()) { sink = f }

func runAll(fs ...func()) {
	for _, f := range fs {
		f() // want `unresolvable dynamic call reachable from //cuckoo:hotpath root allocfreetest\.badLeakedClosures: allocfreetest\.badLeakedClosures -> allocfreetest\.runAll`
	}
}

//cuckoo:hotpath a literal handed to a parameter that escapes, or past a variadic one's first slot, heap-allocates
func badLeakedClosures(t *table) {
	keep(func() { t.hits.Add(1) })              // want `closure allocation \(func literal\) reachable from //cuckoo:hotpath root allocfreetest\.badLeakedClosures`
	runAll(func() {}, func() { t.hits.Add(1) }) // want `closure allocation \(func literal\) reachable from //cuckoo:hotpath root allocfreetest\.badLeakedClosures`
	go func() { t.hits.Add(1) }()               // want `goroutine launch \(go statement\) reachable from //cuckoo:hotpath root allocfreetest\.badLeakedClosures`
}

//cuckoo:hotpath a stored literal heap-allocates its closure
func badStoredClosure(t *table) {
	f := func() { t.hits.Add(1) } // want `closure allocation \(func literal\) reachable from //cuckoo:hotpath root allocfreetest\.badStoredClosure`
	sink = f
}

//cuckoo:hotpath stdlib calls off the known-clean list are reported
func badUnanalyzed(n int) int {
	return use(strconv.Itoa(n)) // want `call into unanalyzed strconv\.Itoa reachable from //cuckoo:hotpath root allocfreetest\.badUnanalyzed`
}

type counter interface{ bump() }

type padded struct{ n atomic.Uint64 }

func (p *padded) bump() { p.n.Add(1) }

type leaky struct{ vals []uint64 }

func (l *leaky) bump() {
	l.vals = append(l.vals, 1) // want `allocation \(append\) \(append\) reachable from //cuckoo:hotpath root allocfreetest\.badIface: allocfreetest\.badIface -> \(\*leaky\)\.bump`
}

//cuckoo:hotpath interface calls are checked against every module implementer
func badIface(c counter) {
	c.bump()
}

func pingAlloc(t *table, n int) {
	if n == 0 {
		return
	}
	t.vals = append(t.vals, 1) // want `allocation \(append\) \(append\) reachable from //cuckoo:hotpath root allocfreetest\.badRecursive: allocfreetest\.badRecursive -> allocfreetest\.pingAlloc`
	pongAlloc(t, n-1)
}

func pongAlloc(t *table, n int) {
	pingAlloc(t, n-1)
}

//cuckoo:hotpath mutual recursion terminates at the on-stack check and still reports
func badRecursive(t *table, n int) {
	pingAlloc(t, n)
}

type hooks struct{ onHit func() }

func installHook(h *hooks, t *table) {
	h.onHit = func() {
		t.vals = append(t.vals, 1) // want `allocation \(append\) \(append\) reachable from //cuckoo:hotpath root allocfreetest\.badFieldCall: allocfreetest\.badFieldCall -> func literal`
	}
}

//cuckoo:hotpath calls through func-typed fields resolve to every stored value
func badFieldCall(h *hooks) {
	h.onHit()
}

type box[V any] struct{ vals []V }

func (b *box[V]) add(v V) {
	b.vals = append(b.vals, v) // want `allocation \(append\) \(append\) reachable from //cuckoo:hotpath root allocfreetest\.badGeneric: allocfreetest\.badGeneric -> \(\*box\)\.add`
}

//cuckoo:hotpath both instantiations resolve to one Origin summary: one finding, not two
func badGeneric(bi *box[uint64], bs *box[string]) {
	bi.add(1)
	bs.add("x")
}

//cuckoo:hotpath a clean root proves silently
func goodClean(t *table, key []byte) uint64 {
	t.hits.Add(1)
	return t.idx[string(key)]
}

// record is a pointer-sized reference to a length-prefixed byte record.
type record struct{ p *byte }

func (r record) bytes() string { return unsafe.String(r.p, int(*r.p)+1) }

//cuckoo:hotpath package unsafe's functions are built-ins the compiler expands in place: no call edge, no allocation
func goodUnsafeBuiltins(r record, buf []byte) (string, int) {
	s := r.bytes()
	next := (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(s)), len(s)))
	view := unsafe.Slice(unsafe.SliceData(buf), len(buf))
	return s, len(view) + int(unsafe.Sizeof(r)) + int(*next)
}

//cuckoo:hotpath an allocation beside an unsafe built-in is still reported
func badUnsafeStillAllocates(key []byte) record {
	b := make([]byte, len(key)+1) // want `allocation \(make\) \(make\) reachable from //cuckoo:hotpath root allocfreetest\.badUnsafeStillAllocates`
	b[0] = byte(copy(b[1:], key))
	return record{unsafe.SliceData(b)}
}

// Backend is implemented only by a package that imports this one
// (allocfreeimpl), which hands its implementation in: a root's interface
// call is checked against that implementer too.
type Backend interface{ Put(k string) }

//cuckoo:hotpath interface calls are checked against implementers in the packages that import the root's
func BadUpward(b Backend) {
	b.Put("k")
}
