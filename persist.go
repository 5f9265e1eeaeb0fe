package cuckoohash

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// Snapshot format: a fixed little-endian header followed by count records
// of (key, value words), followed by a CRC64 of everything before it. The
// format records the table geometry so Load can rebuild an equivalent
// table and bulk-place the entries without cuckoo searches.
const (
	snapshotMagic   = 0x6B75636B6F6F2B31 // "kuckoo+1"
	snapshotVersion = 1
	// maxSnapshotSlots is past any table a process can hold; under it the
	// body's byte length and the bucket-count doubling cannot wrap.
	maxSnapshotSlots = 1 << 40
)

// ErrBadSnapshot reports a corrupt or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("cuckoohash: bad snapshot")

// Save writes a consistent snapshot of the table to w. It holds the
// full-table lock for the duration (writers block; readers retry), exactly
// like Range.
func (m *Map) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	crc := crc64.New(crc64.MakeTable(crc64.ECMA))
	// bufio keeps the first error of w: every later write and the final
	// Flush return it, so the writes below need no checks of their own.
	out := io.MultiWriter(bw, crc)

	o := m.t.Options()
	count := m.Len()
	binary.Write(out, binary.LittleEndian, [7]uint64{
		snapshotMagic,
		snapshotVersion,
		m.Cap(),
		uint64(o.Assoc),
		uint64(o.ValueWords),
		count,
		o.Seed,
	})
	written := uint64(0)
	m.Range(func(key uint64, val []uint64) bool {
		binary.Write(out, binary.LittleEndian, key)
		binary.Write(out, binary.LittleEndian, val)
		written++
		return true
	})
	if written != count {
		// A writer raced between Len and Range; snapshots need external
		// write quiescence only for the count, the data is consistent.
		return fmt.Errorf("cuckoohash: table changed during Save: %d entries written, %d expected", written, count)
	}
	binary.Write(bw, binary.LittleEndian, crc.Sum64())
	return bw.Flush()
}

// Load reads a snapshot produced by Save and returns a new Map holding its
// entries. The returned table has the snapshot's geometry and hash seed;
// of cfg, only AutoGrow still applies. A corrupt stream is an error
// wrapping ErrBadSnapshot and costs no more memory than the bytes it
// delivers; a good one is held in memory whole until its table is built.
func Load(r io.Reader, cfg Config) (*Map, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	crc := crc64.New(crc64.MakeTable(crc64.ECMA))
	in := io.TeeReader(br, crc)

	var hdr [7]uint64
	for i := range hdr {
		if err := binary.Read(in, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("%w: short header: %v", ErrBadSnapshot, err)
		}
	}
	if hdr[0] != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadSnapshot, hdr[0])
	}
	if hdr[1] != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, hdr[1])
	}
	capacity, assoc, vw, count := hdr[2], int(hdr[3]), int(hdr[4]), hdr[5]
	if assoc < 1 || assoc > 32 || vw < 1 || vw > 1<<16 || capacity > maxSnapshotSlots || count > capacity {
		return nil, fmt.Errorf("%w: implausible geometry", ErrBadSnapshot)
	}

	// Nothing is sized from the header until the checksum has vouched for
	// it: the body is read into a buffer that grows with the bytes the
	// stream delivers, not with the count it claims, and the table is built
	// from a verified stream only.
	recBytes := 8 * (1 + vw)
	body, err := io.ReadAll(io.LimitReader(in, int64(count)*int64(recBytes)))
	if err == nil && uint64(len(body)) < count*uint64(recBytes) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: truncated at entry %d: %v", ErrBadSnapshot, len(body)/recBytes, err)
	}
	var got uint64
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadSnapshot, err)
	}
	if got != crc.Sum64() {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}

	cfg.Capacity = capacity
	cfg.Associativity = assoc
	cfg.ValueWords = vw
	// Reuse the snapshot's hash seed: a 95%-full content set is only
	// guaranteed placeable under the hash function it was built with.
	cfg.Seed = hdr[6]
	m, err := NewMap(cfg)
	if err != nil {
		return nil, err
	}

	val := make([]uint64, vw)
	for ; len(body) > 0; body = body[recBytes:] {
		key := binary.LittleEndian.Uint64(body)
		for w := range val {
			val[w] = binary.LittleEndian.Uint64(body[8*(1+w):])
		}
		for {
			err := m.InsertValue(key, val)
			if err == nil {
				break
			}
			// A snapshot taken near absolute fullness (cuckoo fills past
			// 99% before ErrFull) may not replay within the bounded path
			// search even though a placement exists; grow rather than fail.
			// The loaded table then has twice the saved capacity.
			if errors.Is(err, ErrFull) {
				if gerr := m.Grow(); gerr != nil {
					return nil, gerr
				}
				continue
			}
			return nil, fmt.Errorf("%w: duplicate key %#x: %v", ErrBadSnapshot, key, err)
		}
	}
	return m, nil
}
