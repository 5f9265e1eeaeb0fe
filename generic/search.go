package generic

// BFS path search for the generic table, on tag words alone. A slot's tag
// names its occupant's other bucket (altOf), so a frontier scan reads a
// bucket's tag words — atomically, with no stripe held: the search runs
// before any lock is taken, as in §4.3.1 — and neither the search nor the
// moves it leads to read a key: in a keyed table that was a dereference of
// every item considered. What the search saw may be stale by the time it
// is used; the discovered path is validated entry by entry during
// execution, by tag under the hop's stripes (displace), and its head slot
// by the locked attempt. Paths live entirely in the live generation:
// draining old buckets never receive new entries, so they are never
// displacement targets.

import (
	"sync"
	"sync/atomic"
)

// pathEntry is one hop of a cuckoo path: a slot and the tag its occupant
// had when the search passed (0 for the free slot at the path's end).
type pathEntry struct {
	bucket uint64
	slot   int
	tag    uint8
}

// bfsNode is a queued bucket: reached by kicking the occupant with this
// tag out of slot slotInPar of node parent.
type bfsNode struct {
	bucket    uint64
	parent    int32
	slotInPar int8
	tag       uint8
}

// maxSearchSlots is the insert search budget M: how many slots one search
// may examine before it reports the table full (2000, MemC3's and the
// paper's value; Associativity <= 32 keeps one bucket pair well inside it).
const maxSearchSlots = 2000

// searchScratch is one search's BFS queue and the path it returns. It is
// pooled (searchScratches), so a search allocates nothing: the queue is made
// once with room for the whole budget, and the path keeps the capacity of
// the longest one its scratch has held.
type searchScratch struct {
	nodes []bfsNode
	path  []pathEntry
}

var searchScratches = sync.Pool{New: func() any {
	return &searchScratch{nodes: make([]bfsNode, 0, maxSearchSlots+2)}
}}

// search runs BFS from b1/b2 to an empty live slot, reading each frontier
// bucket's tag words once, with no stripe held. It checks that st is still
// the published generation set once, when it has found a free slot. The
// returned path is backed by sc.
//
//cuckoo:coldpath BFS path discovery is the insert slow path (§4, Eq. 2); its appends fill sc, whose queue holds the whole budget
func (t *Table[K, V]) search(st *genState[K, V], sc *searchScratch, b1, b2 uint64) ([]pathEntry, bool) {
	t.probe.Searched(b1)
	arr := st.live
	assoc := int(t.assoc)
	nodes := append(sc.nodes[:0],
		bfsNode{bucket: b1, parent: -1},
		bfsNode{bucket: b2, parent: -1},
	)
	slotsExamined := 0
	for qi := 0; qi < len(nodes) && slotsExamined < maxSearchSlots; qi++ {
		bucket := nodes[qi].bucket
		slotsExamined += assoc
		expand := len(nodes)+assoc <= maxSearchSlots+2
		ws := t.bucketTags(arr, bucket)
		for j := range ws {
			w := atomic.LoadUint32(&ws[j])
			if s := t.freeIn(w, j, len(ws)); s < 4 {
				if !t.stateValid(st) {
					return nil, false
				}
				sc.path = buildPath(sc.path, nodes, qi, 4*j+s)
				return sc.path, true
			}
			// Every slot of this word is taken: where its tags point is
			// the next frontier.
			for s := 4 * j; expand && s < min(4*j+4, assoc); s++ {
				tag := uint8(w >> (s % 4 * 8))
				nodes = append(nodes, bfsNode{
					bucket:    altOf(bucket, tag, arr.buckets),
					parent:    int32(qi),
					slotInPar: int8(s),
					tag:       tag,
				})
			}
		}
	}
	return nil, false
}

// buildPath writes into path, from its start, the hops from a root to slot
// s of node qi.
func buildPath(path []pathEntry, nodes []bfsNode, qi, s int) []pathEntry {
	path = append(path[:0], pathEntry{bucket: nodes[qi].bucket, slot: s})
	for i := qi; nodes[i].parent >= 0; i = int(nodes[i].parent) {
		p := nodes[i].parent
		path = append(path, pathEntry{
			bucket: nodes[p].bucket,
			slot:   int(nodes[i].slotInPar),
			tag:    nodes[i].tag,
		})
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// shift moves every entry on path one hop toward the free slot at its end,
// the last hop first (§4.2): each displace writes an entry into a slot the
// previous one just vacated, so the hole travels back to path[0] while no
// key is ever out of the table, and a hop that fails validation leaves a
// valid table with the hole wherever it had got to. It reports whether
// path[0]'s slot is now free.
func (t *Table[K, V]) shift(st *genState[K, V], path []pathEntry) bool {
	for i := len(path) - 2; i >= 0; i-- {
		if !t.displace(st, path[i], path[i+1]) {
			return false
		}
	}
	return true
}

// openSlot makes room in the full bucket pair b1/b2: it searches, in pooled
// scratch, for a cuckoo path and shifts the path's entries along it. hops
// is the path's length in displacements, -1 when the search found none;
// freed reports that the shift got through, leaving head, the path's first
// slot, free. A store (tryUpdate) and a drain (migrateBucket) are its callers.
//
//cuckoo:coldpath the insert slow path (§4, Eq. 2): a search and the moves it leads to, in scratch from searchScratches
func (t *Table[K, V]) openSlot(st *genState[K, V], b1, b2 uint64) (head pathEntry, hops int, freed bool) {
	sc := searchScratches.Get().(*searchScratch)
	defer searchScratches.Put(sc)
	path, ok := t.search(st, sc, b1, b2)
	if !ok {
		return pathEntry{}, -1, false
	}
	return path[0], len(path) - 1, t.shift(st, path)
}

// displace moves src's occupant into dst, one hop of a path. The hop was
// computed as dst.bucket = altOf(src.bucket, src.tag), and that is all the
// validation there is to do (MemC3's argument): any occupant of src's
// bucket with that tag may legally live in dst's bucket, so if the slot
// changed hands between search and execute and the newcomer's tag is the
// same, moving the newcomer is a valid move, not a stale path. A different
// tag — 0, the slot emptied, included — refuses the hop.
func (t *Table[K, V]) displace(st *genState[K, V], src, dst pathEntry) bool {
	l1, l2 := t.lockPair(src.bucket, dst.bucket)
	defer t.locks.UnlockPair(l1, l2)
	if !t.stateValid(st) {
		return false
	}
	arr := st.live
	if tagIn(t.bucketTags(arr, src.bucket), src.slot) != src.tag || tagIn(t.bucketTags(arr, dst.bucket), dst.slot) != 0 {
		return false
	}
	t.moveSlot(arr, dst.bucket, dst.slot, arr, src.bucket, src.slot)
	t.probe.Displaced(src.bucket)
	return true
}
