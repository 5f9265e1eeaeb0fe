package server

import (
	"strings"
	"time"
)

// item is one stored record — version, expiry, key and value — as a single
// immutable string, so a record is one heap object and a shard slot one
// reference to it (MemC3's layout: the table holds a tag and a pointer,
// the item carries its own key):
//
//	ver(8) | meta(1+) | [expireAt(8)] | key | value
//
// ver is the write's version word, little-endian: it orders the record
// against replicated copies of the same key and is its age when a full
// shard picks a victim. Versions come from the cache's hybrid clock
// (nextVersion): unique and monotonic per node, wall-clock-comparable
// across nodes, so replica application can be last-writer-wins
// (docs/REPLICATION.md); 0 marks a pre-replication record (a legacy v1
// snapshot) and loses to every real version. meta is the uvarint of
// len(key)<<1 | hasExpiry, one byte for keys under 64 bytes. expireAt
// (unix nanoseconds, little-endian) is present only when the record has a
// TTL: eight bytes most records would spend on a zero, and the difference
// between the 64-byte and the 80-byte size class for a 16-byte key and a
// 32-byte value. Key and value are substrings, free to take.
//
// An item is built once, under its key's stripe, and never modified: an
// overwrite publishes a new item through the slot. The zero item "" is
// "no record"; the accessors may be called on a stored item only.
type item string

// itemMaxHeader is the longest header: ver, a ten-byte uvarint, expireAt.
const itemMaxHeader = 8 + 10 + 8

// beginItem reserves the item's one allocation in b and writes the header;
// the caller appends the key, then the value.
func beginItem(b *strings.Builder, ver uint64, expireAt int64, klen, vlen int) {
	var h [itemMaxHeader]byte
	putLE64(h[:], ver)
	meta := uint64(klen) << 1
	if expireAt != 0 {
		meta |= 1
	}
	n := 8
	for ; meta >= 0x80; meta >>= 7 {
		h[n] = byte(meta) | 0x80
		n++
	}
	h[n] = byte(meta)
	n++
	if expireAt != 0 {
		putLE64(h[n:], uint64(expireAt))
		n += 8
	}
	//lint:allow cuckoovet:allocfree one item: the record a SET stores is the single copy that outlives the connection read buffer
	b.Grow(n + klen + vlen)
	b.Write(h[:n])
}

// newItem builds the record for a write whose key and value may still
// alias a connection read buffer.
func newItem(ver uint64, expireAt int64, key, val []byte) item {
	var b strings.Builder
	beginItem(&b, ver, expireAt, len(key), len(val))
	b.Write(key)
	b.Write(val)
	return item(b.String())
}

// newItemString is newItem for the transaction layer, which holds strings.
func newItemString(ver uint64, expireAt int64, key, val string) item {
	var b strings.Builder
	beginItem(&b, ver, expireAt, len(key), len(val))
	b.WriteString(key)
	b.WriteString(val)
	return item(b.String())
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	for i := range 8 {
		b[i] = byte(v >> (8 * i))
	}
}

func le64(s item) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// fields decodes the header: where the key starts and ends (the value
// runs from there to the end) and the expiry, 0 for none.
func (it item) fields() (keyOff, keyEnd int, expireAt int64) {
	meta, n := uint64(it[8]), 9
	if meta >= 0x80 { // a key of 64 bytes or more: the length continues
		meta &= 0x7f
		for shift := 7; ; shift += 7 {
			c := it[n]
			n++
			meta |= uint64(c&0x7f) << shift
			if c < 0x80 {
				break
			}
		}
	}
	if meta&1 != 0 {
		expireAt = int64(le64(it[n:]))
		n += 8
	}
	return n, n + int(meta>>1), expireAt
}

func (it item) ver() uint64 { return le64(it) }

func (it item) key() string {
	off, end, _ := it.fields()
	return string(it[off:end])
}

func (it item) val() string {
	_, end, _ := it.fields()
	return string(it[end:])
}

// expireAt is the absolute expiry in unix nanoseconds; 0 = never expires.
func (it item) expireAt() int64 {
	_, _, exp := it.fields()
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
