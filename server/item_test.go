package server

import (
	"encoding/binary"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// An item is one pointer: eight bytes on the 64-bit targets the sizing in
// DESIGN.md §8 is about. A nonzero difference is a constant index out of range.
var _ = [1]struct{}{}[unsafe.Sizeof(item{})-unsafe.Sizeof(uintptr(0))]

// TestItemRoundTrip: every field comes back out of the one record, from
// either builder, across the key lengths at which meta grows a byte (64,
// 8 192) and the record lengths at which size does (128 and 16 384 bytes
// after it), the wire's longest key (250) and one far past it, with and
// without the optional expiry — and the record is, byte for byte, what
// encoding/binary's uvarints make of the layout. The shortest record, an
// empty key and value, is the ten bytes the fixed header read assumes.
func TestItemRoundTrip(t *testing.T) {
	for _, klen := range []int{0, 1, 16, 63, 64, 250, 8191, 8192, 70000} {
		for _, exp := range []int64{0, 1, 1 << 62} {
			for _, vlen := range []int{0, 32, 100, 300, 16384} {
				key, val := strings.Repeat("k", klen), strings.Repeat("v", vlen)
				ver := uint64(klen)<<32 | 0xfeed
				it := newItem(ver, exp, []byte(key), []byte(val))
				if s := newItem(ver, exp, key, val); s.String() != it.String() {
					t.Fatalf("klen %d exp %d: the string and the byte instantiation disagree", klen, exp)
				}
				if it.ver() != ver || it.expireAt() != exp || it.key() != key || it.val() != val {
					t.Fatalf("klen %d vlen %d exp %d: read back ver %x exp %d key %d bytes val %d bytes",
						klen, vlen, exp, it.ver(), it.expireAt(), len(it.key()), len(it.val()))
				}
				meta := binary.AppendUvarint(nil, uint64(klen)<<1)
				var expiry []byte
				if exp != 0 {
					meta[0] |= 1
					expiry = binary.LittleEndian.AppendUint64(nil, uint64(exp))
				}
				want := binary.LittleEndian.AppendUint64(nil, ver)
				want = binary.AppendUvarint(want, uint64(len(meta)+len(expiry)+klen+vlen))
				want = append(append(append(append(want, meta...), expiry...), key...), val...)
				if it.String() != string(want) {
					t.Fatalf("klen %d vlen %d exp %d: a %d-byte record, want %d bytes; header %x, want %x", klen, vlen, exp,
						len(it.String()), len(want), it.String()[:len(want)-klen-vlen], want[:len(want)-klen-vlen])
				}
				if it.expired(exp) != (exp != 0) || it.expired(exp-1) {
					t.Fatalf("exp %d: expired(exp) = %v, expired(exp-1) = %v", exp, it.expired(exp), it.expired(exp-1))
				}
			}
		}
	}
	if n := len(newItem[[]byte](1, 0, nil, nil).String()); n != itemMinLen {
		t.Errorf("an empty key and value make a %d-byte item, want itemMinLen = %d", n, itemMinLen)
	}
	if s := (item{}).String(); s != "" || !(item{}).isZero() || newItem[[]byte](1, 0, nil, nil).isZero() {
		t.Errorf("the zero item: String %q, isZero %v; a stored empty record: isZero %v", s, (item{}).isZero(), newItem[[]byte](1, 0, nil, nil).isZero())
	}
	// The benchmark's record, and why the expiry is optional: 58 bytes fit
	// the 64-byte size class, 66 would not (they fit the 80-byte one).
	for exp, want := range map[int64]int{0: 58, 1: 66} {
		if n := len(newItem(1, exp, strings.Repeat("k", 16), strings.Repeat("v", 32)).String()); n != want {
			t.Errorf("a 16-byte key and 32-byte value, expiry %d, make a %d-byte item, want %d", exp, n, want)
		}
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

// TestUnsafeStaysInItem: item.go is the only non-test file in the
// repository that imports unsafe (docs/ANALYSIS.md, "unsafe stays where it
// is"): the one place a pointer is turned back into a string, behind
// accessors whose length arithmetic `make race` checks with checkptr.
func TestUnsafeStaysInItem(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || (strings.HasPrefix(name, ".") && name != "..") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` && filepath.ToSlash(path) != "../server/item.go" {
				t.Errorf("%s imports unsafe: server/item.go is the only file that may", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files from the module root: the walk is not seeing the module", files)
	}
}
