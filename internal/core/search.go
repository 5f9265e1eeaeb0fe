package core

import (
	"sync"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/txarena"
)

// pathEntry is one hop of a cuckoo path. For i < len(path)-1, the key
// expected at (path[i].bucket, path[i].slot) will be displaced into
// (path[i+1].bucket, path[i+1].slot). The final entry names the empty slot
// discovered by the search, and path[0] is the slot that ends up free for
// the new key (in one of its two candidate buckets).
type pathEntry struct {
	bucket uint64
	slot   int
	key    uint64 // key observed at (bucket, slot) during search; 0 for the terminal hole
}

// bfsNode is one frontier entry of the breadth-first search over the cuckoo
// graph. Following libcuckoo's b_slot, the node does not store its parent
// chain or the keys along it: the whole root-to-node slot sequence is packed
// into pathcode (base-B digits, root id in the most significant position)
// and decoded only for the single node that finds an empty slot. This keeps
// frontier entries at 16 bytes, which matters because BFS enqueues B
// children per full bucket it examines — with fat nodes the queue traffic
// would cost as much as the displacements BFS saves (§4.3.2).
type bfsNode struct {
	bucket   uint64
	pathcode uint32
	depth    int8
}

// decodePath extracts the root id (0 for b1, 1 for b2) and the slot chosen
// at each of depth levels, earliest hop first.
func (n bfsNode) decodePath(assoc uint64, slots []int) (root uint32) {
	code := n.pathcode
	for i := int(n.depth) - 1; i >= 0; i-- {
		slots[i] = int(code % uint32(assoc))
		code /= uint32(assoc)
	}
	return code
}

// searchScratch holds the per-insert search state. It is pooled: BFS over a
// 2000-slot budget needs a frontier of up to ~M nodes, far too large to
// allocate per operation. Its buffers are sized here and the searches only
// ever write them by index: a search may run inside a transaction (TxTable
// in LockEarly mode), where an allocation cannot be rolled back on abort
// and real HTM aborts on the allocator's page faults (cuckoovet:blockcheck
// follows the search into the transaction).
type searchScratch struct {
	nodes []bfsNode   // the BFS frontier
	path  []pathEntry // the path found; DFS keeps its two walks here
	slots []int       // decoded slot sequence, maxPath entries
	keys  []uint64    // the keys of the bucket being expanded, assoc entries
	txs   txSearch    // a search inside a transaction (LockEarly)
}

func newSearchScratch(maxSlots, assoc int) *searchScratch {
	maxPath := MaxBFSPathLen(assoc, maxSlots) + 2
	// DFS keeps two walks in the same buffer: half each, plus terminators.
	if dfsMax := 2*(maxSlots/(2*assoc)) + 4; dfsMax > maxPath {
		maxPath = dfsMax
	}
	return &searchScratch{
		nodes: make([]bfsNode, maxSlots+2),
		path:  make([]pathEntry, maxPath),
		slots: make([]int, maxPath),
		keys:  make([]uint64, assoc),
	}
}

// searchStatus is the outcome of a path search.
type searchStatus int

const (
	// searchFound: a path to an empty slot was discovered.
	searchFound searchStatus = iota
	// searchFull: the budget was exhausted without finding an empty slot;
	// the table is effectively full.
	searchFull
	// searchStale: a concurrent writer invalidated the observation before
	// the path could be reconstructed; the caller should restart (it is a
	// path invalidation that happened during search rather than execution).
	searchStale
)

// bucketReader is how a path search sees a table's buckets. The search
// runs with no lock held and inside no transaction (§4.3.1), so the only
// thing that differs between the concurrency-control backends is how a
// word is read: *arrays reads its flat slices with atomic loads, *TxTable
// reads its arena with untracked Region.LoadDirect. Either way a stale
// observation only yields a path that fails validation during execution.
// In LockEarly mode (Algorithm 1) the search runs inside the critical
// section instead: Table's under the writer lock, through *arrays still,
// and TxTable's inside the transaction, through a *txSearch whose every
// read the transaction tracks. Lookups do not come through here; they keep
// their direct array access.
type bucketReader interface {
	numBuckets() uint64
	// prefetch asks for bucket b's occupancy and key line ahead of its
	// loadOcc; a search inside a transaction prefetches nothing.
	prefetch(b uint64)
	// loadOcc is bucket b's occupancy bitmask: *arrays derives it from the
	// bucket's key line (a zero key word is an empty slot), so a frontier
	// bucket costs that one line; *TxTable reads its record's bitmap word.
	loadOcc(b uint64) uint32
	slotKey(b uint64, s int) uint64
	// slotKeys reads every key of bucket b into dst (one per slot): BFS
	// expands a full bucket with one call, not one per slot.
	slotKeys(b uint64, dst []uint64)
}

// finder is the insert slow path both tables share: the configuration the
// search reads, its pooled scratch and the probe counters it feeds. What
// stays per table is slot storage and the lock or elision protocol that
// executes a discovered path.
type finder struct {
	opts    Options
	assoc   uint64
	vw      uint64    // value words
	scratch sync.Pool // *searchScratch
	probe   metrics.Probe
}

func (f *finder) init(opts Options) {
	f.opts = opts
	f.assoc = uint64(opts.Assoc)
	f.vw = uint64(opts.ValueWords)
	f.probe = metrics.NewProbe(8)
	f.scratch.New = func() any { return newSearchScratch(opts.MaxSearchSlots, opts.Assoc) }
}

func (f *finder) hash(key uint64) uint64 { return hashfn.Uint64(key, f.opts.Seed) }

// search discovers a cuckoo path from buckets b1/b2 to an empty slot. The
// returned slice is backed by sc and valid until the scratch is reused. It
// counts nothing: it may run inside a transaction, where a counter bump
// would survive an abort, so its callers count the search (probe.Searched).
func (f *finder) search(r bucketReader, sc *searchScratch, b1, b2 uint64) ([]pathEntry, searchStatus) {
	if f.opts.Search == SearchDFS {
		return f.searchDFS(r, sc, b1, b2)
	}
	return f.searchBFS(r, sc, b1, b2)
}

// searchBFS is the paper's breadth-first search (§4.3.2): every slot of the
// frontier bucket extends its own candidate path, so the first empty slot
// found is at minimum displacement depth, bounded by Eq. 2.
func (f *finder) searchBFS(r bucketReader, sc *searchScratch, b1, b2 uint64) ([]pathEntry, searchStatus) {
	nodes := sc.nodes
	nodes[0] = bfsNode{bucket: b1, pathcode: 0}
	nodes[1] = bfsNode{bucket: b2, pathcode: 1}
	tail := 2
	assoc := int(f.assoc)
	nb := r.numBuckets()
	budget := f.opts.MaxSearchSlots
	slotsExamined := 0

	for qi := 0; qi < tail && slotsExamined < budget; qi++ {
		n := nodes[qi]
		occ := r.loadOcc(n.bucket)
		slotsExamined += assoc
		if s, ok := txarena.FreeSlot(occ, assoc); ok {
			if path, ok := f.buildPath(r, sc, n, b1, b2, s); ok {
				return path, searchFound
			}
			return nil, searchStale
		}
		// Bucket full: each of its keys extends a candidate path to its
		// alternate bucket.
		if tail+assoc > len(nodes) {
			continue
		}
		childCode := n.pathcode * uint32(assoc)
		childDepth := n.depth + 1
		r.slotKeys(n.bucket, sc.keys)
		for s, k := range sc.keys {
			alt := hashfn.AltBucket(f.hash(k), nb, n.bucket)
			if f.opts.Prefetch {
				// §4.3.2: the child waits behind every node queued
				// before it, and its key line's miss overlaps theirs.
				r.prefetch(alt)
			}
			nodes[tail] = bfsNode{
				bucket:   alt,
				pathcode: childCode + uint32(s),
				depth:    childDepth,
			}
			tail++
		}
	}
	return nil, searchFull
}

// buildPath reconstructs the cuckoo path for the node that found free slot
// s by decoding its pathcode and re-walking the bucket chain from the root,
// re-reading the key at each hop. The table may have changed since the node
// was enqueued; a divergent walk just yields a path that fails validation
// during execution, exactly like any other stale observation.
func (f *finder) buildPath(r bucketReader, sc *searchScratch, n bfsNode, b1, b2 uint64, s int) ([]pathEntry, bool) {
	root := n.decodePath(f.assoc, sc.slots)
	bucket := b1
	if root == 1 {
		bucket = b2
	}
	nb := r.numBuckets()
	path := sc.path
	for i := 0; i < int(n.depth); i++ {
		slot := sc.slots[i]
		k := r.slotKey(bucket, slot)
		path[i] = pathEntry{bucket: bucket, slot: slot, key: k}
		bucket = hashfn.AltBucket(f.hash(k), nb, bucket)
	}
	// The walked chain must end at the bucket whose free slot we found; if
	// a concurrent writer moved a key along the chain it may not. Report
	// failure so the caller restarts the search rather than executing a
	// path into the wrong bucket.
	if bucket != n.bucket {
		return nil, false
	}
	path[n.depth] = pathEntry{bucket: bucket, slot: s}
	return path[:n.depth+1], true
}

// searchDFS is MemC3's two-way random-walk search: two candidate paths (one
// per candidate bucket) are extended alternately by kicking a random
// victim, completing when either reaches a bucket with an empty slot. It is
// retained as the factor-analysis baseline (§4.3.2, Fig. 5).
//
// A random walk can cross itself and name one slot twice. Executed
// hole-backward, the earlier mention then finds the key a later hop moved
// in, whose alternate bucket is not the one the path goes on to; execution
// re-validates every entry's key before moving it (displace, txAttempt), so
// such a path stops there and the insert searches again — every hop
// already made was a legal move.
func (f *finder) searchDFS(r bucketReader, sc *searchScratch, b1, b2 uint64) ([]pathEntry, searchStatus) {
	assoc := int(f.assoc)
	nb := r.numBuckets()
	budget := f.opts.MaxSearchSlots
	maxLen := max(budget/(2*assoc), 1)

	// Two walks, one from each candidate bucket, each in its own half of
	// the scratch path buffer.
	walks := [2][]pathEntry{sc.path[:maxLen+1], sc.path[maxLen+1 : 2*maxLen+2]}
	cur := [2]uint64{b1, b2}
	var n [2]int
	// Victims derive from the candidate pair, not from state carried
	// between searches: a search is a function of the table and the key, so
	// the same operations on two tables walk the same paths whichever
	// pooled scratch each happens to draw.
	rng := b1<<32 ^ b2

	for slotsExamined := 0; slotsExamined < budget; {
		if n[0] > maxLen && n[1] > maxLen {
			return nil, searchFull
		}
		for w, path := range walks {
			if n[w] > maxLen {
				continue
			}
			occ := r.loadOcc(cur[w])
			slotsExamined += assoc
			if s, ok := txarena.FreeSlot(occ, assoc); ok {
				path[n[w]] = pathEntry{bucket: cur[w], slot: s}
				return path[:n[w]+1], searchFound
			}
			// Kick a random victim to its alternate bucket.
			rng = hashfn.SplitMix64(rng)
			s := int(rng % uint64(assoc))
			k := r.slotKey(cur[w], s)
			path[n[w]] = pathEntry{bucket: cur[w], slot: s, key: k}
			n[w]++
			cur[w] = hashfn.AltBucket(f.hash(k), nb, cur[w])
		}
	}
	return nil, searchFull
}
