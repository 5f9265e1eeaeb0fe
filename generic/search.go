package generic

// BFS path search for the generic table, on tag bytes alone. A slot's tag
// names its occupant's other bucket (altOf), so a frontier scan snapshots a
// full bucket's tags — under its stripe, one bucket at a time, never nested
// — and neither the search nor the moves it leads to read a key: in a keyed
// table that was a dereference of every item considered. The discovered
// path is still validated entry by entry during execution, as in §4.3.1,
// by tag. Paths live entirely in the live generation: draining old buckets
// never receive new entries, so they are never displacement targets.

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

// search runs BFS from b1/b2 to an empty live slot. The queue starts
// with room for the roots, their children and their grandchildren — all
// a search that ends one hop away can enqueue — and grows on demand to
// at most the roots plus maxSearchSlots nodes.
//
//cuckoo:coldpath BFS path discovery is the insert slow path (§4, Eq. 2); its queue is the cost of a full bucket pair
func (t *Table[K, V]) search(st *genState[K, V], b1, b2 uint64) ([]pathEntry, bool) {
	t.probe.Searched(b1)
	arr := st.live
	assoc := int(t.assoc)
	nodes := make([]bfsNode, 0, min(2+2*assoc*(1+assoc), maxSearchSlots+2))
	nodes = append(nodes,
		bfsNode{bucket: b1, parent: -1},
		bfsNode{bucket: b2, parent: -1},
	)
	tags := make([]uint8, assoc)
	slotsExamined := 0
	for qi := 0; qi < len(nodes) && slotsExamined < maxSearchSlots; qi++ {
		bucket := nodes[qi].bucket // a copy: the appends below may move nodes
		slotsExamined += assoc

		// Snapshot the bucket under its stripe.
		l := t.locks.IndexFor(bucket)
		t.locks.Lock(l)
		if !t.stateValid(st) {
			t.locks.Unlock(l)
			return nil, false
		}
		bucketTags := t.bucketTags(arr, bucket)
		free, ok := freeSlot(bucketTags)
		if !ok { // full: where its tags point is the next frontier
			copy(tags, bucketTags)
		}
		t.locks.Unlock(l)

		if ok {
			return buildPath(nodes, qi, free), true
		}
		if len(nodes)+assoc > maxSearchSlots+2 {
			continue
		}
		for s, tag := range tags {
			nodes = append(nodes, bfsNode{
				bucket:    altOf(bucket, tag, arr.buckets),
				parent:    int32(qi),
				slotInPar: int8(s),
				tag:       tag,
			})
		}
	}
	return nil, false
}

func buildPath(nodes []bfsNode, qi, s int) []pathEntry {
	var path []pathEntry
	path = append(path, pathEntry{bucket: nodes[qi].bucket, slot: s})
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

// execute performs the validated displacements and the final insert,
// returning the locked attempt's outcome (putNoSpace and putStale both mean
// "retry the whole insert").
func (t *Table[K, V]) execute(st *genState[K, V], path []pathEntry, h, b1, b2 uint64, key K, val V, overwrite bool) putResult {
	if !t.shift(st, path) {
		return putNoSpace
	}
	head := path[0]
	other := b2
	if head.bucket == b2 {
		other = b1
	}
	return t.attempt(st, h, head.bucket, other, key, val, overwrite, head.slot)
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
	si := src.bucket*t.assoc + uint64(src.slot)
	if arr.tags[si] != src.tag || arr.tags[dst.bucket*t.assoc+uint64(dst.slot)] != 0 {
		return false
	}
	t.moveSlot(arr, dst.bucket, dst.slot, arr, si)
	t.probe.Displaced(src.bucket)
	return true
}
