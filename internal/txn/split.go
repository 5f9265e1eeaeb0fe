package txn

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cuckoohash/internal/spinlock"
)

// Operation classes a key can be split for. A key splits for exactly one
// class at a time: ADD and MAX are each commutative with themselves but
// not with each other, so mixing them on one hot key forces a reconcile
// (Doppel runs non-commutative ops only between split phases).
const (
	classAdd = uint8(iota)
	classMax
)

// hotEntry is one promoted key's state in the copy-on-write hot set.
type hotEntry struct {
	// key is the hot set's own copy of the key (insertHotLocked): what a
	// byte-keyed probe hands on, so a hot hit converts nothing.
	key   string
	class uint8
	// idleTicks counts consecutive phase ticks that folded no deltas;
	// two idle ticks demote the key back to direct pinned updates.
	idleTicks uint8
	// slots[i] is this key's pre-registered delta in shard i: promotion
	// pays for the shard-map insertions once, so the split fast path
	// reaches its slot with an index, not a second keyed lookup.
	slots []*delta
}

// delta is the pending commutative state for one key in one shard.
type delta struct {
	class uint8
	// dead marks a delta unlinked from its shard map at demotion. A
	// straggler that cached the pointer through a stale hot set must
	// fall back to the pinned path rather than write into an object no
	// fold will ever visit again. Guarded by the owning shard's mutex.
	dead bool
	add  int64
	max  int64
	ops  uint64
}

// splitShard is one padded shard of pending deltas. Updates take only
// the shard's spinlock — never a key's pin — so a split-phase INCR
// touches no cache line shared with another core's split ops. A spinlock
// rather than sync.Mutex because a drain (Store.drain) runs with the
// key's pin held: the holder of a stripe must never park.
// The padding keeps adjacent shards off each other's lines (the paper's
// principle P1, same reasoning as metrics.ShardedCounter).
type splitShard struct {
	mu     spinlock.Mutex
	deltas map[string]*delta
	_      [64 - 8 - 8]byte // spinlock (4, padded to 8) + map header (8) → one 64-byte line
}

// splitTable routes hot-key commutative updates to per-shard delta slots.
type splitTable struct {
	shards []splitShard
	mask   uint64

	// hotCount gates the fast path: when zero (no promoted keys, the
	// common state), hotClass is a single atomic load and no map is
	// touched. hot is copy-on-write: readers load the pointer lock-free;
	// promote/demote copy the map under promoteMu and swap the pointer.
	hotCount atomic.Int64
	hot      atomic.Pointer[map[string]hotEntry]

	promoteMu sync.Mutex
	contend   map[string]int
}

func newSplitTable() *splitTable {
	t := &splitTable{
		shards:  make([]splitShard, splitShards),
		mask:    splitShards - 1,
		contend: make(map[string]int),
	}
	for i := range t.shards {
		t.shards[i].deltas = make(map[string]*delta)
	}
	return t
}

// lookup returns key's split state when key is currently hot. The hot
// set pointer is nil whenever the set is empty (the common state), so
// the cold path is one atomic pointer load and no map access; with a
// non-empty hot set it is one lock-free map lookup.
func (t *splitTable) lookup(key string) (hotEntry, bool) {
	m := t.hot.Load()
	if m == nil {
		return hotEntry{}, false
	}
	e, ok := (*m)[key]
	return e, ok
}

// lookupBytes is lookup for a key still in byte-slice form: the probe is
// the compiler's free map[string(b)] lookup, and a hit carries the key as
// a string the caller may keep.
func (t *splitTable) lookupBytes(key []byte) (hotEntry, bool) {
	m := t.hot.Load()
	if m == nil {
		return hotEntry{}, false
	}
	e, ok := (*m)[string(key)]
	return e, ok
}

// record parks one pending commutative update — an ADD of n or a
// MAXUPDATE to n, per the key's split class — in the hint's shard slot.
// It reports false when the slot is dead — the key was demoted between
// the caller's hot lookup and here — and the caller must apply on the
// pinned path instead.
func (t *splitTable) record(e hotEntry, n int64, hint uint64) bool {
	i := hint & t.mask
	p := e.slots[i]
	sh := &t.shards[i]
	sh.mu.Lock()
	if p.dead {
		sh.mu.Unlock()
		return false
	}
	if e.class == classAdd {
		p.add += n
	} else if p.ops == 0 || n > p.max {
		p.max = n
	}
	p.ops++
	sh.mu.Unlock()
	return true
}

// pending is the sum of a key's drained delta slots.
type pending struct {
	add     int64
	max     int64
	haveMax bool
	ops     uint64
}

// take moves p's pending state into f and zeroes p, so a slot can never
// be folded twice — not even a dead one that a racing re-promotion
// adopted into a new hot entry just before a drain unlinked it.
// Caller holds p's shard mutex.
func (f *pending) take(p *delta) {
	if p.ops == 0 {
		return
	}
	f.add += p.add
	if p.class == classMax && (!f.haveMax || p.max > f.max) {
		f.max, f.haveMax = p.max, true
	}
	f.ops += p.ops
	p.add, p.max, p.ops = 0, 0, 0
}

// pendingKeys snapshots every key registered in any shard: all hot keys
// (their slots stay registered while promoted, pending or not) plus any
// demoted key whose final fold has not run yet. Tick folds each one;
// zero-pending folds are free.
func (t *splitTable) pendingKeys() map[string]struct{} {
	keys := make(map[string]struct{})
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k := range sh.deltas {
			keys[k] = struct{}{}
		}
		sh.mu.Unlock()
	}
	return keys
}

// noteContention charges one contended critical section to key and
// promotes it to split mode once the threshold is reached. Called only
// after a pin that had to wait, once it is released, so the bookkeeping
// mutex is off the uncontended fast path entirely.
//
//cuckoo:coldpath promotion bookkeeping runs only after contended pins, never on the uncontended per-op path
func (s *Store) noteContention(key string, class uint8) {
	t := s.split
	t.promoteMu.Lock()
	t.contend[key]++
	if t.contend[key] >= s.promoteAfter {
		delete(t.contend, key)
		if t.insertHotLocked(key, class) {
			s.stats.promotions.Add(1)
		}
	}
	t.promoteMu.Unlock()
}

// Promote forces key into split mode for the commutative-add class, as
// if it had crossed the contention threshold. Benchmarks and tests use
// it to measure split-phase behaviour deterministically: organic
// promotion depends on pins colliding, which is scheduler-timing
// dependent. Returns false when the key is already hot.
func (s *Store) Promote(key string) bool {
	t := s.split
	t.promoteMu.Lock()
	ok := t.insertHotLocked(key, classAdd)
	t.promoteMu.Unlock()
	if ok {
		s.stats.promotions.Add(1)
	}
	return ok
}

// insertHotLocked adds key to the copy-on-write hot set and registers
// one delta slot per shard. Caller holds promoteMu. Returns false if the
// key was already hot.
func (t *splitTable) insertHotLocked(key string, class uint8) bool {
	old := t.hot.Load()
	if old != nil {
		if _, ok := (*old)[key]; ok {
			return false
		}
	}
	// The hot set and the shard maps outlive the request that promoted the
	// key: they keep a copy, never a substring of something larger (a
	// stored item, a read buffer's string) that they would pin.
	key = strings.Clone(key)
	slots := make([]*delta, len(t.shards))
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if p, ok := sh.deltas[key]; ok {
			// A previous hot life left a not-yet-folded straggler; adopt
			// it so its pending ops fold with the new life's.
			slots[i] = p
		} else {
			p := &delta{class: class}
			sh.deltas[key] = p
			slots[i] = p
		}
		sh.mu.Unlock()
	}
	next := make(map[string]hotEntry, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[key] = hotEntry{key: key, class: class, slots: slots}
	t.hot.Store(&next)
	t.hotCount.Add(1)
	return true
}

// drain moves key's pending deltas into p. Caller holds key's pin. A
// still-hot key's slots are zeroed but stay registered in their shard
// maps, so the next split op reuses them. With all — a fold's — a demoted
// key's stragglers are drained too: each is unlinked and marked dead, so a
// writer still holding its pointer through a stale hot set diverts to the
// pinned path, and no state for the key remains in any shard nor can
// silently reappear. Without all a key that is not hot costs one atomic
// load: a demoted key's deltas wait for the phase tick's fold.
func (s *Store) drain(key string, p *pending, all bool) {
	if !all && s.split.hotCount.Load() == 0 {
		return
	}
	e, hot := s.split.lookup(key)
	if !hot && !all {
		return
	}
	before := p.ops
	for i := range s.split.shards {
		sh := &s.split.shards[i]
		sh.mu.Lock()
		if hot {
			p.take(e.slots[i])
		} else if d, ok := sh.deltas[key]; ok {
			delete(sh.deltas, key)
			d.dead = true
			p.take(d)
		}
		sh.mu.Unlock()
	}
	if n := p.ops - before; n > 0 {
		s.stats.splitOps.Add(n)
		s.stats.reconciles.Add(1)
	}
}

// foldInto makes drained deltas a write of c: the adds onto its integer,
// then the maximum. Unparsable existing values (a SET overwrote a split
// counter with garbage) are treated as zero: the acknowledged commutative
// ops cannot be reported as failed after the fact, so folding onto zero
// is the least surprising recovery.
//
//cuckoo:coldpath a fold runs once per phase tick (or on a hot key's first pinned op), not per operation
func (p *pending) foldInto(c *cell) {
	if p.ops == 0 {
		return
	}
	var n int64
	if c.ok {
		n, _ = strconv.ParseInt(c.val, 10, 64)
	}
	n += p.add
	if p.haveMax && p.max > n {
		n = p.max
	}
	c.val, c.ok, c.write = strconv.FormatInt(n, 10), true, OpSet
}

// fold folds key's pending deltas, a hot key's or a demoted key's, into
// the backing store in one Update, and returns how many ops it folded. A
// store too full to take the key the deltas would create drops them: a
// counter on a shard that cannot even hold the key is already lost.
//
//cuckoo:coldpath a fold runs once per phase tick, or on a hot key's read
func (s *Store) fold(key string) uint64 {
	ch, _ := s.kv.Update(key, Change{s: s, op: Op{Key: key}})
	return ch.pend.ops
}

// Discard drops key's pending split deltas, reporting whether there were
// any: a blind write (SET, DEL) or a removal replaces whatever they would
// have added. Call it in the critical section that applies the write, and
// only for a write it applies.
func (s *Store) Discard(key string) bool {
	var p pending
	s.drain(key, &p, false)
	return p.ops > 0
}

// Tick runs one split-phase boundary: every pending delta is folded into
// its canonical value, and hot keys that were idle for two consecutive
// ticks are demoted. Call it periodically (tens of milliseconds — the
// phase length bounds read staleness). It is safe to call concurrently:
// folds serialize on the keys' pins and the hot-set rebuild on
// promoteMu; a Tick that loses the race to another's demotions simply
// finds less (or nothing) left to do.
func (s *Store) Tick() {
	t := s.split
	hot := t.hot.Load()

	// Fold every key with queued deltas, hot or not: a key demoted while
	// an update raced hotClass can leave a straggler delta behind, and
	// this sweep is what guarantees it still lands.
	folded := make(map[string]uint64)
	for key := range t.pendingKeys() {
		folded[key] = s.fold(key)
	}

	if hot == nil {
		return
	}
	// Demote hot keys that have gone quiet so the hot set tracks the
	// workload's current skew rather than its history. Reload the hot
	// set under promoteMu: a promotion may have raced the fold above,
	// and rebuilding from a stale snapshot would silently drop it —
	// or another Tick may have emptied the set entirely.
	t.promoteMu.Lock()
	hot = t.hot.Load()
	if hot == nil {
		// A concurrent Tick demoted the last hot key since the load above.
		t.promoteMu.Unlock()
		return
	}
	var demote []string
	next := make(map[string]hotEntry, len(*hot))
	for k, e := range *hot {
		if folded[k] == 0 {
			e.idleTicks++
		} else {
			e.idleTicks = 0
		}
		if e.idleTicks >= 2 {
			demote = append(demote, k)
			continue
		}
		next[k] = e
	}
	// Store the rebuilt map even with no demotions: the idle-tick
	// counters must persist across phases to ever reach the threshold.
	// An empty set stores nil so lookup's cold path stays map-free.
	if len(next) == 0 {
		t.hot.Store(nil)
	} else {
		t.hot.Store(&next)
	}
	if len(demote) > 0 {
		t.hotCount.Add(int64(-len(demote)))
		s.stats.demotions.Add(uint64(len(demote)))
	}
	t.promoteMu.Unlock()

	// Post-demotion sweep: an update that loaded the old hot set during
	// the swap may have parked one more delta; fold it now rather than
	// waiting a full phase.
	for _, k := range demote {
		s.fold(k)
	}
}

// ReconcileAll folds every pending delta. Call on drain before taking a
// persistent snapshot so no acknowledged commutative op is left sitting
// in a delta shard.
func (s *Store) ReconcileAll() {
	for key := range s.split.pendingKeys() {
		s.fold(key)
	}
}
