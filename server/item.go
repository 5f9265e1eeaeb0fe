package server

import (
	"time"
	"unsafe"
)

// item is one stored record — version, expiry, key and value — as one
// pointer to a single immutable heap object, so a shard slot is a tag byte
// and eight bytes of reference (MemC3's bucket: the table holds a tag and
// a pointer, the item carries its own key and says how long it is):
//
//	ver(8) | size(1+) | meta(1+) | [expireAt(8)] | key | value
//
// ver is the write's version word, little-endian: it orders the record
// against replicated copies of the same key and is its age when a full
// shard picks a victim. Versions come from the cache's hybrid clock
// (nextVersion): unique and monotonic per node, wall-clock-comparable
// across nodes, so replica application can be last-writer-wins
// (docs/REPLICATION.md); 0 marks a pre-replication record (a legacy v1
// snapshot) and loses to every real version. size is the uvarint of how
// many bytes follow it, one byte while those are under 128: the length
// word a string header would have spent eight slot bytes on, empty slots
// included. meta is the uvarint of len(key)<<1 | hasExpiry, one byte for
// keys under 64 bytes. expireAt (unix nanoseconds, little-endian) is
// present only when the record has a TTL: eight bytes most records would
// spend on a zero, and the difference between the 64-byte and the 80-byte
// size class for a 16-byte key and a 32-byte value. Key and value are
// substrings, free to take.
//
// An item is built before any lock; its version word is written only by
// the decision that publishes it (stamp), and nothing of it changes once a
// slot holds it: an overwrite publishes a new item through the slot, so two
// items are equal exactly when they are the same write. The zero item is
// "no record"; the accessors may be called on a stored item only.
//
// This file is the module's only use of unsafe (TestUnsafeStaysInItem):
// Go has no safe reference to a variable-length record narrower than a
// 16-byte string header. All of it goes through record, which turns the
// pointer back into a string of the length the record's own header
// states; every accessor slices that string, bounds-checked, and `make
// race` (which implies checkptr) checks that the stated length never
// leaves the allocation.
type item struct{ p *byte }

const (
	// itemMinLen is the shortest record: ver, then a size and a meta of one
	// byte each, for an empty key and value with no expiry.
	itemMinLen = 8 + 1 + 1
	// itemMaxPrefix is the longest ver + size: a uvarint is at most ten bytes.
	itemMaxPrefix = 8 + 10
)

// uvarintLen is how many bytes putUvarint writes for v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// putUvarint writes v at b[n:] and returns the offset past it.
func putUvarint(b []byte, n int, v uint64) int {
	for ; v >= 0x80; v >>= 7 {
		b[n] = byte(v) | 0x80
		n++
	}
	b[n] = byte(v)
	return n + 1
}

// uvarint reads the uvarint at s[n:] and returns it and the offset past it.
func uvarint(s string, n int) (uint64, int) {
	v := uint64(s[n])
	n++
	if v < 0x80 {
		return v, n
	}
	v &= 0x7f
	for shift := 7; ; shift += 7 {
		c := s[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
}

// newItem builds the record for a write in its one allocation. The key and
// value are copied, so they may still alias a connection read buffer
// ([]byte, the wire path) or be strings the transaction layer holds.
func newItem[S interface{ ~string | ~[]byte }](ver uint64, expireAt int64, key, val S) item {
	meta := uint64(len(key)) << 1
	size := uvarintLen(meta) + len(key) + len(val)
	if expireAt != 0 {
		meta |= 1
		size += 8
	}
	//lint:allow cuckoovet:allocfree one item: the record a SET stores is the single copy that outlives the connection read buffer
	b := make([]byte, 8+uvarintLen(uint64(size))+size)
	putLE64(b, ver)
	n := putUvarint(b, 8, uint64(size))
	n = putUvarint(b, n, meta)
	if expireAt != 0 {
		putLE64(b[n:], uint64(expireAt))
		n += 8
	}
	n += copy(b[n:], key)
	copy(b[n:], val)
	return item{unsafe.SliceData(b)}
}

// stamp writes ver into the version word of an item no slot holds yet: a
// local write's Update decision issues the version under the key's pin and
// stamps it there, again on every attempt, before the table publishes the
// item.
func (it item) stamp(ver uint64) { putLE64(unsafe.Slice(it.p, 8), ver) }

func putLE64(b []byte, v uint64) {
	_ = b[7]
	for i := range 8 {
		b[i] = byte(v >> (8 * i))
	}
}

func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// record returns the whole record and the offset of meta in it.
func (it item) record() (string, int) {
	h := unsafe.String(it.p, itemMinLen)
	if h[8] >= 0x80 {
		// A size that continues counts at least 128 bytes after it: the
		// longest prefix is inside the record.
		h = unsafe.String(it.p, itemMaxPrefix)
	}
	size, n := uvarint(h, 8)
	return unsafe.String(it.p, n+int(size)), n
}

// fields decodes the header: the record, where in it the key starts and
// ends (the value runs from there to the end) and the expiry, 0 for none.
func (it item) fields() (rec string, keyOff, keyEnd int, expireAt int64) {
	rec, n := it.record()
	meta, n := uvarint(rec, n)
	if meta&1 != 0 {
		expireAt = int64(le64(rec[n:]))
		n += 8
	}
	return rec, n, n + int(meta>>1), expireAt
}

func (it item) isZero() bool { return it.p == nil }

// String is the record's bytes, "" for the zero item.
func (it item) String() string {
	if it.isZero() {
		return ""
	}
	rec, _ := it.record()
	return rec
}

func (it item) ver() uint64 { return le64(unsafe.String(it.p, 8)) }

func (it item) key() string {
	rec, off, end, _ := it.fields()
	return rec[off:end]
}

func (it item) val() string {
	rec, _, end, _ := it.fields()
	return rec[end:]
}

// expireAt is the absolute expiry in unix nanoseconds; 0 = never expires.
func (it item) expireAt() int64 {
	_, _, _, exp := it.fields()
	return exp
}

func (it item) expired(now int64) bool {
	exp := it.expireAt()
	return exp != 0 && now >= exp
}

// expiredNow is expired at the current time; the clock is read only for an
// item that can expire.
func (it item) expiredNow() bool {
	exp := it.expireAt()
	return exp != 0 && time.Now().UnixNano() >= exp
}

// olderThan is the eviction order: an expired item goes before a live
// one, and otherwise the earlier write goes first.
func (it item) olderThan(o item, now int64) bool {
	if ex, ox := it.expired(now), o.expired(now); ex != ox {
		return ex
	}
	return it.ver() < o.ver()
}
