package memc3

import (
	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/txarena"
)

// bucketReader is how the path search reads a bucket. Table, holding its
// writer lock, loads its arrays; TxTable reads through the transaction it
// is in (txSearch), so every bucket the walk visits joins that
// transaction's read set — which is what dooms it (§2.3).
type bucketReader interface {
	loadOcc(b uint64) uint32
	slotKey(b uint64, s int) uint64
}

// walk is MemC3's two-way random-walk path search and the table geometry it
// needs. Table and TxTable embed it; Algorithm 1 runs it inside the
// critical section either way.
type walk struct {
	nb, assoc, seed uint64
	budget          int // M, the slots examined before giving up
}

func newWalk(o Options) walk {
	return walk{nb: o.Buckets, assoc: uint64(o.Assoc), seed: o.Seed, budget: o.MaxSearchSlots}
}

func (w *walk) hash(key uint64) uint64 { return hashfn.Uint64(key, w.seed) }

// maxPathLen is the per-direction depth bound implied by the budget.
func (w *walk) maxPathLen() int {
	return max(w.budget/(2*int(w.assoc)), 1)
}

// dfsScratch holds one search's two path buffers and its victim-selection
// state. The buffers are sized before the search begins and only ever
// written by index: when the search runs inside a transaction an
// allocation cannot be rolled back on abort, and real HTM aborts on the
// allocator's page faults (cuckoovet:blockcheck follows the search into
// the transaction).
type dfsScratch struct {
	paths [2][]entry
	rng   uint64 // xorshift64 state
}

func (w *walk) newScratch() *dfsScratch {
	n := w.maxPathLen() + 1
	return &dfsScratch{paths: [2][]entry{make([]entry, n), make([]entry, n)}}
}

// entry is one hop of a path: the key seen at (bucket, slot) moves to the
// next entry's slot. The last entry names the empty slot and has no key.
type entry struct {
	bucket uint64
	slot   int
	key    uint64
}

// search extends two candidate paths alternately, one from each candidate
// bucket, by kicking a random victim to its alternate bucket, until either
// reaches a bucket with an empty slot. The returned path ends at that slot
// and is backed by sc.
//
// A random walk can cross itself and name one slot twice. Executed
// hole-backward, the earlier mention then finds the key a later hop moved
// in, whose alternate bucket is not the one the path goes on to — so
// whoever executes a path checks each entry's key first and searches again
// when it has changed; every hop already made was a legal move.
func (w *walk) search(r bucketReader, sc *dfsScratch, b1, b2 uint64) ([]entry, bool) {
	assoc := int(w.assoc)
	maxLen := w.maxPathLen()
	cur := [2]uint64{b1, b2}
	n := [2]int{}
	for examined := 0; examined < w.budget; {
		if n[0] > maxLen && n[1] > maxLen {
			return nil, false
		}
		for d := 0; d < 2; d++ {
			if n[d] > maxLen {
				continue
			}
			path := sc.paths[d]
			examined += assoc
			if s, ok := txarena.FreeSlot(r.loadOcc(cur[d]), assoc); ok {
				path[n[d]] = entry{bucket: cur[d], slot: s}
				return path[:n[d]+1], true
			}
			sc.rng ^= sc.rng << 13
			sc.rng ^= sc.rng >> 7
			sc.rng ^= sc.rng << 17
			s := int(sc.rng % uint64(assoc))
			k := r.slotKey(cur[d], s)
			path[n[d]] = entry{bucket: cur[d], slot: s, key: k}
			n[d]++
			cur[d] = hashfn.AltBucket(w.hash(k), w.nb, cur[d])
		}
	}
	return nil, false
}
