package generic

// Incremental two-generation resize. A grow no longer stops the world: it
// allocates a bucket array half again as large alongside the old one,
// publishes both behind a single generation-state pointer, and drains the
// old buckets a bounded batch at a time while every operation on a key
// holds that key's stripes in all published generations (pin) and probes
// them all (locate). The table paces its own drain, and nothing outside it
// can: every Update (and so every Insert, Upsert and Delete) made while a
// migration is in flight drains writeDrain buckets once it has released
// its stripes, and the background sweeper a grow starts finishes the
// migration of a table that stops seeing writes. The scheme follows the
// page-by-page rehash of "Cuckoo Hashing with Pages" (arXiv:1104.5111),
// which paces the rehash with the table's own operations, and the
// two-table read discipline of "Lock-Free Hopscotch Hashing"
// (arXiv:1911.03028): the published generation-state pointer tells
// concurrent operations that the generation set changed (stateValid), and
// per-bucket migrated marks make the old generation write-once-drained.
//
// Invariants (machine-checked by the cuckoovet genercheck analyzer):
//
//   - Every bucket-array access sits between a loadState and a
//     stateValid re-check under the covering stripes, so an operation
//     never works on a generation set that was unpublished before it
//     locked.
//   - A key lives in exactly one slot of one generation. Movers (the
//     migrator, and writers folding an old entry forward) hold the old
//     bucket's stripe and both live candidates' stripes, so the
//     single-copy invariant is preserved across the move — and so the
//     order in which locate walks the generations cannot change what any
//     operation finds.
//   - New values land only in the live generation. The only writes an
//     old generation ever sees are slot clears; once a bucket's
//     migrated mark is set it is empty forever, so nothing is written
//     to an old generation after its mark.

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
)

// genState is the published generation set: the live arrays every new
// value lands in, plus zero or more draining old generations (oldest
// first). The struct and its olds slice are immutable once stored;
// grow-start and migration-finish publish a fresh value under growMu.
type genState[K comparable, V any] struct {
	live *tArrays[K, V]
	olds []*oldGen[K, V]
}

// oldGen is one draining generation: its frozen arrays, a migrated-mark
// bitmap (a bucket's mark is set exactly once, when it is observed
// empty), a claim cursor handing buckets to migrators, and a count of
// buckets still unmarked.
type oldGen[K comparable, V any] struct {
	arr       *tArrays[K, V]
	marks     []atomic.Uint32 // 32 buckets per word
	next      atomic.Uint64   // next bucket index to claim
	remaining atomic.Int64    // unmarked buckets; 0 = fully drained
}

func newOldGen[K comparable, V any](arr *tArrays[K, V]) *oldGen[K, V] {
	g := &oldGen[K, V]{
		arr:   arr,
		marks: make([]atomic.Uint32, (arr.buckets+31)/32),
	}
	g.remaining.Store(int64(arr.buckets))
	return g
}

// isMigrated reports whether bucket b's migrated mark is set.
func (g *oldGen[K, V]) isMigrated(b uint64) bool {
	return g.marks[b>>5].Load()&(1<<(b&31)) != 0
}

// firstUnmarked returns the first bucket whose migrated mark is not set,
// or the bucket count when every one is. A mark word's bits past the last
// bucket are never set.
func (g *oldGen[K, V]) firstUnmarked() uint64 {
	for w := range g.marks {
		if m := ^g.marks[w].Load(); m != 0 {
			return min(uint64(w)*32+uint64(bits.TrailingZeros32(m)), g.arr.buckets)
		}
	}
	return g.arr.buckets
}

// markMigrated sets bucket b's migrated mark, reporting whether this
// call was the one that set it. Marking is only correct once b is
// empty: nothing is ever added to an old generation, so emptiness is
// stable and the mark is permanent. Spelled as an explicit CAS loop
// rather than Uint32.Or: the value-returning Or intrinsic miscompiles
// under the pinned go1.24.0 toolchain (the expansion clobbers a live
// register), and the CAS form is what the rest of the repo uses anyway.
func (g *oldGen[K, V]) markMigrated(b uint64) bool {
	w := &g.marks[b>>5]
	bit := uint32(1) << (b & 31)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// GrowEventKind labels a GrowEvent: the start of an incremental grow or
// the retirement of a fully drained old generation.
type GrowEventKind uint8

const (
	// GrowStart: a new live generation was published; migration of the
	// previous live arrays begins.
	GrowStart GrowEventKind = iota
	// GrowDone: an old generation finished draining and was retired.
	GrowDone
)

// String returns the kind's label ("start" or "done").
func (k GrowEventKind) String() string {
	if k == GrowStart {
		return "start"
	}
	return "done"
}

// GrowEvent describes one grow state change, delivered to
// Config.OnGrowEvent from whichever goroutine drove the transition.
type GrowEvent struct {
	Kind GrowEventKind
	// FromBuckets is the bucket count of the generation being retired
	// (the previous live arrays on start, the drained ones on done).
	FromBuckets uint64
	// ToBuckets is the live bucket count after the event.
	ToBuckets uint64
	// Backlog is the number of old-generation buckets still awaiting
	// migration after the event, across all draining generations.
	Backlog uint64
}

// loadState returns the current generation set. Any bucket access
// derived from the returned state must re-check stateValid after the
// covering stripes are held (the genercheck analyzer enforces this).
func (t *Table[K, V]) loadState() *genState[K, V] { return t.state.Load() }

// stateValid reports whether st is still the published generation set.
// Callers hold the stripes covering the buckets they are about to
// touch, so a true result pins the generation set for the critical
// section: both publish points (grow-start and migration-finish) swap
// the state pointer before any migrator can touch the affected buckets,
// and migrators take those same stripes.
func (t *Table[K, V]) stateValid(st *genState[K, V]) bool { return t.state.Load() == st }

// Growing reports whether an incremental migration is in flight.
func (t *Table[K, V]) Growing() bool { return len(t.loadState().olds) > 0 }

// backlog sums the unmarked buckets across st's old generations.
func backlog[K comparable, V any](st *genState[K, V]) uint64 {
	var n uint64
	for _, g := range st.olds {
		if r := g.remaining.Load(); r > 0 {
			n += uint64(r)
		}
	}
	return n
}

// grow starts an incremental migration if the live arrays still have
// observedBuckets buckets (a concurrent grow already helped otherwise),
// returning false only when Config.MaxCapacity forbids further growth. The
// migration it starts gets a background sweeper, so it finishes even if
// the writes that pace it stop.
//
//cuckoo:coldpath a grow allocates the new generation by definition; bounded by log1.5(capacity) occurrences
func (t *Table[K, V]) grow(observedBuckets uint64) bool {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	if t.loadState().live.buckets != observedBuckets {
		return true // raced with another grow; caller just retries
	}
	if !t.growLocked(false) {
		return false
	}
	go t.sweepMigration()
	return true
}

// growLocked publishes a live generation of ⌈1.5·n⌉ buckets rounded up to
// even and queues the current live arrays for draining. Caller holds
// growMu. force ignores MaxCapacity: the migrator uses it to guarantee
// drain termination, so the configured bound is a bound on put-driven
// growth, not a hard cap on transient capacity. It starts no sweeper (grow
// does): the only other grow is an escalation mid-drain, whose migration
// whoever is draining finishes — Range's or Clear's synchronous drain, or
// the writes and the sweeper the first grow started.
//
// Half again, not double: a table that grows when full at load f is f/1.5
// full after a grow instead of f/2 (about 0.64 instead of 0.48 at B = 4),
// so a growing table sits about 0.79 full on average instead of 0.69; a
// grow holds 2.5 times the old arrays instead of 3 (the last, up to 3);
// and since a growing table's n items cost a geometric series of
// migrations, each item is migrated about twice over its life instead of
// about once.
//
// The last grow goes to MaxCapacity's bucket count as soon as that is at
// most twice the live count, so it is never a small step: the room a grow
// adds has to absorb the writes made while it drains, and a last step of
// 5 % (15 552 → 16 384 buckets) filled up before its drain finished and
// forced an escalation grow past the cap.
func (t *Table[K, V]) growLocked(force bool) bool {
	st := t.loadState()
	live := st.live
	newBuckets := (live.buckets*3/2 + 1) &^ 1
	if limit := maxBucketsOf(t.cfg); !force && limit != 0 && limit <= 2*live.buckets {
		if limit <= live.buckets {
			return false
		}
		newBuckets = limit
	}
	olds := make([]*oldGen[K, V], 0, len(st.olds)+1)
	olds = append(olds, st.olds...)
	olds = append(olds, newOldGen(live))
	next := &genState[K, V]{live: t.newArrays(newBuckets), olds: olds}
	t.state.Store(next)
	t.growCount.Add(1)
	if f := t.cfg.OnGrowEvent; f != nil {
		f(GrowEvent{Kind: GrowStart, FromBuckets: live.buckets,
			ToBuckets: newBuckets, Backlog: backlog(next)})
	}
	return true
}

// writeDrain is how many old-generation buckets each write drains while
// a migration is in flight: a generation of n buckets is drained within
// n/2 writes, while the live arrays, 1.5·n buckets holding its keys at
// about 0.64 load, take about 1.9·n more keys before they fill. A write
// pays at most a couple of bucket moves for it.
const writeDrain = 2

// migrateBatch drains up to max old-generation buckets into the live
// arrays, oldest generation first, and returns how many buckets this
// call drained. It returns 0, after one atomic load, when no migration is
// in flight. Writes call it with writeDrain, the sweeper with
// sweepBatchBuckets.
//
//cuckoo:coldpath drain work only exists while a resize is in flight; at most writeDrain buckets per write
func (t *Table[K, V]) migrateBatch(max int) int {
	done := 0
	for done < max {
		st := t.loadState()
		if len(st.olds) == 0 {
			break
		}
		g := st.olds[0]
		if g.remaining.Load() == 0 {
			if !t.finishGen(g) {
				break // growMu busy; whoever holds it will retire g
			}
			continue
		}
		b := g.next.Add(1) - 1
		if b >= g.arr.buckets {
			// Every bucket is claimed. A claimant that stalled (a sweeper
			// not scheduled since) would hold every drain behind its
			// bucket, so drain the first unmarked one here:
			// migrateBucket is safe beside its claimant.
			if b = g.firstUnmarked(); b == g.arr.buckets {
				break
			}
		}
		t.migrateBucket(g, b, false)
		done++
	}
	return done
}

// sweepMigration drains in the background until no old generations
// remain. One sweeper is spawned per grow; extra sweepers from chained
// grows drain the same cursors and exit together, so no lifecycle
// management is needed.
func (t *Table[K, V]) sweepMigration() {
	for {
		n := t.migrateBatch(sweepBatchBuckets)
		if !t.Growing() {
			return
		}
		if n == 0 {
			// growMu is briefly busy, so a drained generation could not
			// be retired yet. Back off.
			time.Sleep(50 * time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// sweepBatchBuckets is the sweeper's per-iteration claim, sized so one
// iteration stays microseconds even with full buckets.
const sweepBatchBuckets = 8

// migrateBucket drains old-generation bucket b: every key is moved to a
// free slot among its live candidate buckets (BFS displacement in the
// live arrays makes room when neither is free, a forced grow when even
// BFS fails), then the bucket's migrated mark is set. Safe to call
// concurrently for the same bucket; it returns once b is marked.
// growMuHeld distinguishes the synchronous drain (Range/Clear hold
// growMu) so escalation does not self-deadlock.
func (t *Table[K, V]) migrateBucket(g *oldGen[K, V], b uint64, growMuHeld bool) {
	for {
		if g.isMigrated(b) {
			return
		}
		st := t.loadState()
		li := t.locks.IndexFor(b)
		t.locks.Lock(li)
		if !t.stateValid(st) {
			t.locks.Unlock(li)
			continue
		}
		m := used(t.bucketTags(g.arr, b))
		slot := uint64(bits.TrailingZeros32(m))
		var key K
		if m != 0 {
			key = t.keyAt(g.arr, b*t.assoc+slot)
		}
		t.locks.Unlock(li)

		if m == 0 {
			// Nothing is ever added to an old generation, so emptiness
			// is stable and the mark can be set outside the stripe.
			if g.markMigrated(b) {
				g.remaining.Add(-1)
				t.migratedBuckets.Add(1)
			}
			return
		}

		live := st.live
		h := t.hash(key)
		nb1, nb2 := twoBuckets(h, live.buckets)
		if t.moveOldSlot(st, g, b, slot, key, nb1, nb2) {
			continue
		}
		// Neither live candidate has room: open a slot with a BFS
		// displacement path, exactly like a slow-path insert, and whether
		// or not the shift got there, look again.
		if _, hops, _ := t.openSlot(st, nb1, nb2); hops >= 0 {
			continue
		}
		// The live arrays are too full to absorb the old keys: escalate
		// with another (forced) grow so the drain always terminates.
		if growMuHeld {
			t.growLocked(true)
		} else {
			t.growMu.Lock()
			if t.stateValid(st) {
				t.growLocked(true)
			}
			t.growMu.Unlock()
		}
	}
}

// moveOldSlot moves one key from old-generation bucket ob (slot s) into
// a free slot of its live candidates nb1/nb2, holding the old bucket's
// stripe and both live stripes. It returns true when the slot no longer
// needs work — moved here, already gone, or the state changed — and
// false when both live candidates are full and the caller must make
// room first.
func (t *Table[K, V]) moveOldSlot(st *genState[K, V], g *oldGen[K, V], ob, s uint64, key K, nb1, nb2 uint64) bool {
	var buf [3]uint64
	idxs := append(buf[:0], t.locks.IndexFor(ob), t.locks.IndexFor(nb1), t.locks.IndexFor(nb2))
	locked, _ := t.locks.LockOrdered(idxs)
	defer t.locks.UnlockOrdered(locked)
	if !t.stateValid(st) {
		return true
	}
	i := ob*t.assoc + s
	if tagIn(t.bucketTags(g.arr, ob), int(s)) == 0 || t.keyAt(g.arr, i) != key {
		return true // a writer or another migrator already handled it
	}
	dst, ok := t.liveSlotFor(st.live, nb1, nb2, -1)
	if ok {
		t.moveSlot(st.live, dst.bucket, dst.slot, g.arr, ob, int(s))
	}
	return ok
}

// finishGen retires a fully drained old generation, publishing a state
// without it. It uses TryLock so a request-path caller never queues
// behind a long growMu holder (Range keeps growMu for a whole
// iteration); the sweeper or the next caller retires g instead.
func (t *Table[K, V]) finishGen(g *oldGen[K, V]) bool {
	if !t.growMu.TryLock() {
		return false
	}
	defer t.growMu.Unlock()
	t.finishGenLocked(g)
	return true
}

// finishGenLocked removes g from the published old-generation list.
// Caller holds growMu and g is fully drained.
func (t *Table[K, V]) finishGenLocked(g *oldGen[K, V]) {
	st := t.loadState()
	idx := -1
	for i, og := range st.olds {
		if og == g {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // already retired
	}
	olds := make([]*oldGen[K, V], 0, len(st.olds)-1)
	olds = append(olds, st.olds[:idx]...)
	olds = append(olds, st.olds[idx+1:]...)
	if len(olds) == 0 {
		olds = nil
	}
	next := &genState[K, V]{live: st.live, olds: olds}
	t.state.Store(next)
	if f := t.cfg.OnGrowEvent; f != nil {
		f(GrowEvent{Kind: GrowDone, FromBuckets: g.arr.buckets,
			ToBuckets: st.live.buckets, Backlog: backlog(next)})
	}
}

// drainAllLocked completes every in-flight migration synchronously.
// Caller holds growMu, which blocks new grows, so the loop terminates:
// each pass retires the oldest generation, and escalation grows (the
// only source of new generations here) strictly grow the live arrays by
// half, which cannot continue past the point where everything fits.
func (t *Table[K, V]) drainAllLocked() {
	for {
		st := t.loadState()
		if len(st.olds) == 0 {
			return
		}
		g := st.olds[0]
		for b := uint64(0); b < g.arr.buckets; b++ {
			t.migrateBucket(g, b, true)
		}
		t.finishGenLocked(g)
	}
}
