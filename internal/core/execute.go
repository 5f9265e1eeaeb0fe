package core

// executePath performs the validated execution phase of Algorithm 2:
// displacements run hole-backward from the discovered empty slot toward
// path[0], each under only the pair of bucket locks it touches (§4.4), each
// re-validating the path entry it is about to move. The final insert locks
// the candidate pair (b1, b2) to atomically re-check for duplicates and
// claim the freed slot.
//
// Any validation failure returns attemptRetry without undo: a displacement
// only ever moves a key to its own alternate bucket, so a partially
// executed path leaves the table fully consistent (§4.3.1).
func (t *Table) executePath(arr *arrays, path []pathEntry, b1, b2 uint64, key uint64, val []uint64, mode writeMode) attemptResult {
	for i := len(path) - 2; i >= 0; i-- {
		if !t.displace(arr, path[i], path[i+1]) {
			return attemptRetry
		}
		t.probe.Displaced(path[i].bucket)
	}
	head := path[0]
	other := b2
	if head.bucket == b2 {
		other = b1
	}
	return t.attemptInPair(arr, head.bucket, other, key, val, mode, head.slot)
}

// displace moves the key expected at src into the empty slot dst, holding
// both buckets' stripe locks. It reports false if the snapshot taken during
// the unlocked search no longer holds (the path is invalid, Eq. 1).
func (t *Table) displace(arr *arrays, src, dst pathEntry) bool {
	l1, l2 := t.lockPair(src.bucket, dst.bucket)
	defer t.unlockPair(l1, l2)
	if t.arr.Load() != arr {
		return false
	}
	srcIdx := arr.slotIdx(src.bucket, src.slot, t.assoc)
	dstIdx := arr.slotIdx(dst.bucket, dst.slot, t.assoc)
	if src.key == 0 || arr.loadKey(srcIdx) != src.key || arr.loadKey(dstIdx) != 0 {
		return false
	}
	// Destination is written before the source is cleared, so a concurrent
	// optimistic reader can never miss the key: it is transiently present
	// twice but never absent (the MemC3 hole-backward invariant, §4.2).
	arr.moveSlot(srcIdx, dstIdx, t.vw)
	return true
}
