package server

import (
	"strings"
	"testing"
)

// TestItemRoundTrip: every field comes back out of the one string, from
// either builder, across the key lengths at which the length prefix grows
// a byte (64, 8 192), with and without the optional expiry, and the header
// is exactly as long as the layout says.
func TestItemRoundTrip(t *testing.T) {
	for _, klen := range []int{0, 1, 16, 63, 64, 250, 8191, 8192, 70000} {
		for _, exp := range []int64{0, 1, 1 << 62} {
			for _, vlen := range []int{0, 32, 300} {
				key, val := strings.Repeat("k", klen), strings.Repeat("v", vlen)
				ver := uint64(klen)<<32 | 0xfeed
				it := newItem(ver, exp, []byte(key), []byte(val))
				if s := newItemString(ver, exp, key, val); s != it {
					t.Fatalf("klen %d exp %d: the two builders disagree", klen, exp)
				}
				if it.ver() != ver || it.expireAt() != exp || it.key() != key || it.val() != val {
					t.Fatalf("klen %d vlen %d exp %d: read back ver %x exp %d key %d bytes val %d bytes",
						klen, vlen, exp, it.ver(), it.expireAt(), len(it.key()), len(it.val()))
				}
				header := 8 + 1
				if klen >= 64 {
					header++
				}
				if klen >= 8192 {
					header++
				}
				if exp != 0 {
					header += 8
				}
				if len(it) != header+klen+vlen {
					t.Fatalf("klen %d exp %d: %d header bytes, want %d", klen, exp, len(it)-klen-vlen, header)
				}
				if it.expired(exp) != (exp != 0) || it.expired(exp-1) {
					t.Fatalf("exp %d: expired(exp) = %v, expired(exp-1) = %v", exp, it.expired(exp), it.expired(exp-1))
				}
			}
		}
	}
	// The benchmark's record, and why the expiry is optional: 57 bytes fit
	// the 64-byte size class, 65 would not.
	if n := len(newItemString(1, 0, strings.Repeat("k", 16), strings.Repeat("v", 32))); n != 57 {
		t.Errorf("a 16-byte key and 32-byte value make a %d-byte item, want 57", n)
	}
}

// TestLongKeysAreReadable: a key longer than maphash's 128-byte block (the
// wire allows 250) is found again by every read — GET probes with the key's
// bytes, SET stored it as a string, and the two used to hash such a key
// differently, so the SET was acknowledged and every GET missed.
func TestLongKeysAreReadable(t *testing.T) {
	c, err := NewCache(4, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{128, 129, 200, maxKeyLen} {
		key := strings.Repeat("k", n)
		if err := c.Set(key, "v", 0); err != nil {
			t.Fatal(err)
		}
		if v, ok := c.Get(key); !ok || v != "v" {
			t.Errorf("Get of a %d-byte key = %q, %v", n, v, ok)
		}
		if ok, err := c.applyReplicaSet([]byte(key), []byte("stale"), 0, 1, nil); ok || err != nil {
			t.Errorf("a version-1 replica write over a fresh %d-byte key: applied=%v err=%v", n, ok, err)
		}
		if !c.Delete(key, nil) {
			t.Errorf("Delete of a %d-byte key found nothing", n)
		}
	}
}
