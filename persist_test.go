package cuckoohash_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"testing"

	"cuckoohash"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 1 << 12, ValueWords: 2})
	for k := uint64(1); k <= 3000; k++ {
		if err := m.InsertValue(k, []uint64{k * 2, k * 3}); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	loaded, err := cuckoohash.Load(&buf, cuckoohash.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 3000 {
		t.Fatalf("loaded Len = %d", loaded.Len())
	}
	if loaded.Cap() != m.Cap() {
		t.Fatalf("loaded Cap = %d, want %d", loaded.Cap(), m.Cap())
	}
	dst := make([]uint64, 2)
	for k := uint64(1); k <= 3000; k++ {
		if !loaded.LookupValue(k, dst) || dst[0] != k*2 || dst[1] != k*3 {
			t.Fatalf("loaded Lookup(%d) = %v", k, dst)
		}
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 256})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := cuckoohash.Load(&buf, cuckoohash.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("Len = %d", loaded.Len())
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 256})
	for k := uint64(1); k <= 100; k++ {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bit flip in the payload: checksum must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	if _, err := cuckoohash.Load(bytes.NewReader(bad), cuckoohash.Config{}); !errors.Is(err, cuckoohash.ErrBadSnapshot) {
		t.Fatalf("corrupt payload: err = %v", err)
	}

	// Truncation.
	if _, err := cuckoohash.Load(bytes.NewReader(good[:len(good)-20]), cuckoohash.Config{}); !errors.Is(err, cuckoohash.ErrBadSnapshot) {
		t.Fatalf("truncated: err = %v", err)
	}

	// Bad magic.
	bad2 := append([]byte(nil), good...)
	bad2[0] ^= 0xFF
	if _, err := cuckoohash.Load(bytes.NewReader(bad2), cuckoohash.Config{}); !errors.Is(err, cuckoohash.ErrBadSnapshot) {
		t.Fatalf("bad magic: err = %v", err)
	}

	// Empty stream.
	if _, err := cuckoohash.Load(bytes.NewReader(nil), cuckoohash.Config{}); !errors.Is(err, cuckoohash.ErrBadSnapshot) {
		t.Fatalf("empty: err = %v", err)
	}

	// Flipped bit in the CRC trailer itself: the payload is intact but the
	// checksum no longer matches it.
	bad3 := append([]byte(nil), good...)
	bad3[len(bad3)-1] ^= 0x01
	if _, err := cuckoohash.Load(bytes.NewReader(bad3), cuckoohash.Config{}); !errors.Is(err, cuckoohash.ErrBadSnapshot) {
		t.Fatalf("flipped crc: err = %v", err)
	}

	// Unsupported version word (second u64 of the header).
	bad4 := append([]byte(nil), good...)
	bad4[8] = 0x7F
	if _, err := cuckoohash.Load(bytes.NewReader(bad4), cuckoohash.Config{}); !errors.Is(err, cuckoohash.ErrBadSnapshot) {
		t.Fatalf("bad version: err = %v", err)
	}
}

// TestLoadRejectsCorruptHeader: a header the checksum has not vouched for
// must never size the table. Every case is an ErrBadSnapshot, not a panic,
// a hang or an allocation of what the header claims; the sealed ones carry
// a checksum that matches, so only the geometry check can refuse them.
func TestLoadRejectsCorruptHeader(t *testing.T) {
	const magic = 0x6B75636B6F6F2B31
	stream := func(sealed bool, words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		if sealed {
			b = binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crc64.MakeTable(crc64.ECMA)))
		}
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		// header words: magic, version, capacity, assoc, value words, count, seed
		{"huge capacity", stream(false, magic, 1, 1<<50, 8, 1, 0, 0)},
		{"huge capacity sealed", stream(true, magic, 1, 1<<50, 8, 1, 0, 0)},
		{"flipped bit in capacity and count", stream(false, magic, 1, 1<<34|256, 8, 1, 1<<34|100, 0, 1, 1, 2, 2)},
		{"capacity times assoc overflows", stream(false, magic, 1, 1<<63+1, 8, 1, 0, 0)},
		{"capacity times assoc overflows sealed", stream(true, magic, 1, 1<<63+1, 8, 1, 0, 0)},
		{"count over capacity sealed", stream(true, magic, 1, 8, 4, 1, 9, 0)},
		{"truncated body", stream(false, magic, 1, 256, 4, 1, 100, 0, 1, 1, 2, 2, 3)},
		{"missing checksum", stream(false, magic, 1, 256, 4, 1, 2, 0, 1, 1, 2, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cuckoohash.Load(bytes.NewReader(tc.data), cuckoohash.Config{}); !errors.Is(err, cuckoohash.ErrBadSnapshot) {
				t.Fatalf("err = %v, want ErrBadSnapshot", err)
			}
		})
	}
}

func TestAutoGrow(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 128, AutoGrow: true})
	const n = 5000
	for k := uint64(1); k <= n; k++ {
		if err := m.Insert(k, k); err != nil {
			t.Fatalf("Insert(%d) with AutoGrow: %v", k, err)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	if m.Cap() < n {
		t.Fatalf("Cap = %d; did not grow", m.Cap())
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := m.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestAutoGrowConcurrent(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 128, AutoGrow: true})
	const writers = 4
	const per = 3000
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			base := uint64(w+1) << 32
			for i := uint64(0); i < per; i++ {
				if err := m.Insert(base|i, i); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", m.Len(), writers*per)
	}
}

func TestLookupBatch(t *testing.T) {
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 1 << 12})
	for k := uint64(1); k <= 2000; k++ {
		if err := m.Insert(k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	// A mix of hits and misses, longer than the prefetch window.
	keys := make([]uint64, 100)
	for i := range keys {
		if i%3 == 0 {
			keys[i] = uint64(i) + 1<<40 // miss
		} else {
			keys[i] = uint64(i%2000) + 1 // hit
		}
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	m.LookupBatch(keys, vals, found)
	for i, k := range keys {
		wantHit := i%3 != 0
		if found[i] != wantHit {
			t.Fatalf("key %d found=%v want %v", k, found[i], wantHit)
		}
		if wantHit && vals[i] != k*7 {
			t.Fatalf("key %d val=%d want %d", k, vals[i], k*7)
		}
	}
	// Short batches (below the window) work too.
	m.LookupBatch(keys[:3], vals[:3], found[:3])
	if found[0] || !found[1] || !found[2] {
		t.Fatal("short batch wrong")
	}
	// Output slice length validation.
	defer func() {
		if recover() == nil {
			t.Fatal("short output slices accepted")
		}
	}()
	m.LookupBatch(keys, vals[:1], found)
}

func TestSaveLoadAtHighOccupancy(t *testing.T) {
	// A 95%-full table with a non-default seed must round-trip: Load has
	// to reuse the snapshot's hash seed or the content may not fit.
	m := cuckoohash.MustNewMap(cuckoohash.Config{Capacity: 1 << 12, Seed: 12345})
	var n uint64
	for k := uint64(1); ; k++ {
		if err := m.Insert(k, k); err != nil {
			break
		}
		n++
	}
	if float64(n) < 0.95*float64(m.Cap()) {
		t.Fatalf("only filled to %d/%d", n, m.Cap())
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := cuckoohash.Load(&buf, cuckoohash.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != n {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), n)
	}
	// A snapshot taken at ~99% may load into a grown table; the content is
	// what matters.
	if loaded.Cap() < m.Cap() {
		t.Fatalf("loaded Cap = %d < saved %d", loaded.Cap(), m.Cap())
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := loaded.Lookup(k); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}
