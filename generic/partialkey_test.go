package generic

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAltIsInvolution: for every tag and every even table size — each up to
// 256 buckets, the powers of two, and the sizes growth by half passes
// through — the bucket a tag names is another bucket of the table, and
// naming it again leads back, which is what lets a slot's occupant move on
// its tag alone, from either of its two buckets, without knowing which one
// it is in. The two differ in their low bit, so with two or more lock
// stripes they are never on one.
func TestAltIsInvolution(t *testing.T) {
	var sizes []uint64
	for n := uint64(2); n <= 256; n += 2 {
		sizes = append(sizes, n)
	}
	for n := uint64(512); n <= 1<<20; n <<= 1 {
		sizes = append(sizes, n)
	}
	for n := uint64(256); n <= 1<<24; n = (n*3/2 + 1) &^ 1 {
		sizes = append(sizes, n)
	}
	for _, buckets := range sizes {
		// Every bucket of a small table; the corners and a stride of a large one.
		step := max(1, buckets/1024-1)
		for tag := 1; tag <= 255; tag++ {
			for b := uint64(0); b < buckets; b += step {
				alt := altOf(b, uint8(tag), buckets)
				if alt == b || alt >= buckets || altOf(alt, uint8(tag), buckets) != b || (alt^b)&1 == 0 {
					t.Fatalf("%d buckets, tag %d: altOf(%d) = %d, and back %d", buckets, tag, b, alt, altOf(alt, uint8(tag), buckets))
				}
			}
			last := buckets - 1
			if alt := altOf(last, uint8(tag), buckets); alt == last || alt >= buckets || altOf(alt, uint8(tag), buckets) != last {
				t.Fatalf("%d buckets, tag %d: altOf(last) = %d", buckets, tag, alt)
			}
		}
	}
}

// TestTagReadsNoBucketBit: the tag is the hash's top byte and nothing else,
// so in any table of up to 2^56 buckets a key's first bucket and the offset
// to its second are independent — a tag that shared bits with the bucket
// index would tie the two choices together and give up load without a
// failing test to show for it.
func TestTagReadsNoBucketBit(t *testing.T) {
	for tag := 1; tag <= 255; tag++ {
		for _, low := range []uint64{0, 1, 0xFFFFFFFF, 1<<56 - 1} {
			if got := tagOf(uint64(tag)<<56 | low); got != uint8(tag) {
				t.Fatalf("tagOf(%#x<<56 | %#x) = %#x", tag, low, got)
			}
		}
	}
	if got := tagOf(1<<56 - 1); got != 1 {
		t.Fatalf("a zero top byte takes tag %#x, want 1: 0 is the empty slot", got)
	}
}

// TestTagWordProbes compares the word-at-a-time probes with a loop over a
// word's bytes, for all 256 tags, over the edge words and seeded random
// ones (half of them drawn from bytes that provoke matchTag's borrow):
// matchTag finds every byte equal to the tag and its lowest match is one;
// freeIn finds exactly the first empty slot, a narrow bucket's padding
// never among them; usedIn and used mark exactly the nonzero bytes.
func TestTagWordProbes(t *testing.T) {
	words := []uint32{0, 0x01010101, ^uint32(0)}
	for b := range 4 {
		words = append(words, ^uint32(0)&^(0xff<<(8*b)), 0x01010101&^(0xff<<(8*b)))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	byteOf := func(w uint32, s int) uint8 { return uint8(w >> (8 * s)) }
	tables := map[int]*Table[int, int]{}
	for _, assoc := range []int{1, 2, 3, 4, 8} {
		tables[assoc] = MustNew[int, int](Config{InitialCapacity: 64, Associativity: assoc})
	}
	for tag := range 256 {
		tag := uint8(tag)
		edge := []uint8{0, 1, 0x80, 0xff, tag, tag ^ 1}
		for i := range 256 {
			w := rng.Uint32()
			if i%2 == 0 {
				w = 0
				for s := range 4 {
					w |= uint32(edge[rng.IntN(len(edge))]) << (8 * s)
				}
			}
			words = append(words, w)
		}
		for _, w := range words {
			m, lowest := matchTag(w, tag), -1
			for s := range 4 {
				if byteOf(w, s) == tag {
					if lowest < 0 {
						lowest = s
					}
					if m>>(8*s+7)&1 == 0 {
						t.Fatalf("matchTag(%#08x, %#02x) = %#08x misses byte %d", w, tag, m, s)
					}
				}
			}
			if got := bits.TrailingZeros32(m) / 8; m != 0 && got != lowest || m == 0 && lowest >= 0 {
				t.Fatalf("matchTag(%#08x, %#02x) = %#08x: lowest match %d, want %d", w, tag, m, got, lowest)
			}
		}
		words = words[:11]
	}
	for range 4096 {
		ws := []uint32{rng.Uint32() & rng.Uint32(), rng.Uint32() & rng.Uint32()}
		for _, w := range ws {
			for s := range 4 {
				if got, want := usedIn(w)>>(8*s+7)&1 == 1, byteOf(w, s) != 0; got != want {
					t.Fatalf("usedIn(%#08x) byte %d = %v, want %v", w, s, got, want)
				}
			}
		}
		for assoc, tab := range tables {
			n := min(assoc, 4)
			want := 4
			for s := n - 1; s >= 0; s-- {
				if byteOf(ws[0], s) == 0 {
					want = s
				}
			}
			if got := tab.freeIn(ws[0], 0, 1); got != want {
				t.Fatalf("B%d: freeIn(%#08x) = %d, want %d", assoc, ws[0], got, want)
			}
		}
		m := used(ws)
		for s := range 32 {
			if got, want := m>>s&1 == 1, s < 8 && byteOf(ws[s/4], s%4) != 0; got != want {
				t.Fatalf("used(%#08x) slot %d = %v, want %v", ws, s, got, want)
			}
		}
	}
}

// TestInsertPathReadsNoItem fills a keyed table to its first refusal and
// counts how often the table asked a value for its key. Between "both
// buckets full" and "a slot is free" everything runs on tag bytes, so what
// is left is locate's key compare behind a false tag match — a few per
// hundred inserts, where deriving the alternate bucket from the key cost six
// to twelve per insert — and the restricted second choice gives up no load.
func TestInsertPathReadsNoItem(t *testing.T) {
	for _, tc := range []struct {
		assoc   int
		minLoad float64
	}{{4, 0.95}, {8, 0.97}} {
		t.Run(fmt.Sprintf("B%d", tc.assoc), func(t *testing.T) {
			const slots = 1 << 16
			keyOfs := 0
			tab, err := NewKeyed(Config{InitialCapacity: slots, MaxCapacity: slots, Associativity: tc.assoc,
				DisableAutoGrow: true},
				func(r *rec) string { keyOfs++; return r.key })
			if err != nil {
				t.Fatal(err)
			}
			inserts := 0
			for ; ; inserts++ {
				k := fmt.Sprintf("fill-%d", inserts)
				if err := tab.Insert(k, &rec{key: k, n: inserts}); err != nil {
					if !errors.Is(err, ErrFull) {
						t.Fatal(err)
					}
					break
				}
			}
			perInsert := float64(keyOfs) / float64(inserts)
			t.Logf("%d inserts to load %.4f, %d displacements, %.4f keyOf calls per insert",
				inserts, tab.LoadFactor(), tab.Stats().Displacements, perInsert)
			if perInsert >= 0.1 {
				t.Errorf("%.2f keyOf calls per insert, want < 0.1: the insert path reads items", perInsert)
			}
			if got := tab.LoadFactor(); got < tc.minLoad {
				t.Errorf("first refusal at load %.4f, want >= %.2f", got, tc.minLoad)
			}
			if tab.Stats().Displacements == 0 {
				t.Error("the fill displaced nothing")
			}
			checkSlots(t, tab)
		})
	}
}

// sameBucket returns keys whose first bucket is the same, in a table of that
// many buckets: two that share their tag, and a third with another tag.
func sameBucket(t *testing.T, tab *Table[string, rec], buckets uint64) (a, twin, stranger string) {
	t.Helper()
	byBucket := map[uint64][]string{}
	for i := 0; i < 1_000_000; i++ {
		twin = fmt.Sprintf("d%d", i)
		h := tab.hash(twin)
		b1 := firstBucket(h, buckets)
		a, stranger = "", ""
		for _, k := range byBucket[b1] {
			if tagOf(tab.hash(k)) == tagOf(h) {
				a = k
			} else {
				stranger = k
			}
		}
		if a != "" && stranger != "" {
			return a, twin, stranger
		}
		byBucket[b1] = append(byBucket[b1], twin)
	}
	t.Fatal("no two keys share a bucket and a tag")
	return
}

// TestDisplaceMovesSameTagOccupant changes a path slot's occupant between
// search and shift. A key with the same tag in that bucket has the same
// other bucket, so the hop is as valid for it as for the key the search saw:
// it lands, and nothing is lost or misplaced. A key with another tag is not
// the path's to move: the hop is refused and the table is left as it was.
func TestDisplaceMovesSameTagOccupant(t *testing.T) {
	cfg := Config{InitialCapacity: 256, MaxCapacity: 256}
	for _, tc := range []struct {
		name  string
		moves bool
	}{{"same-tag", true}, {"other-tag", false}} {
		t.Run(tc.name, func(t *testing.T) {
			eachConstruction(t, cfg, func(t *testing.T, tab *Table[string, rec]) {
				st := tab.loadState()
				live := st.live
				a, twin, stranger := sameBucket(t, tab, live.buckets)
				newcomer := twin
				if !tc.moves {
					newcomer = stranger
				}
				match := func(key string) func(string) bool { return func(k string) bool { return k == key } }

				// The search's view: a sits in its first bucket, and the one-hop
				// path moves it to the bucket its tag names.
				if err := tab.Insert(a, rec{key: a, n: 1}); err != nil {
					t.Fatal(err)
				}
				_, b, i, ok := tab.locate(st, tab.hash(a), match(a))
				if !ok || b != firstBucket(tab.hash(a), live.buckets) {
					t.Fatalf("%s is not in its first bucket", a)
				}
				tag := slotTag(live, i)
				path := []pathEntry{
					{bucket: b, slot: int(i % tab.assoc), tag: tag},
					{bucket: altOf(b, tag, live.buckets), slot: 0},
				}

				// Between search and shift the slot changes hands: a moves to
				// another slot of its bucket and newcomer takes the one the
				// path names. The slots are written directly, so the change
				// does not depend on where an insert would place either key.
				s := int(i % tab.assoc)
				tab.moveSlot(live, b, (s+1)%int(tab.assoc), live, b, s)
				tab.place(live, b, s, newcomer, rec{key: newcomer, n: 2}, tagOf(tab.hash(newcomer)))
				tab.size.Add(b, 1)
				if _, _, ni, ok := tab.locate(st, tab.hash(newcomer), match(newcomer)); !ok || ni != i {
					t.Fatalf("%s did not take %s's slot", newcomer, a)
				}
				if _, ab, ai, ok := tab.locate(st, tab.hash(a), match(a)); !ok || ab != b || ai == i {
					t.Fatalf("%s did not move to another slot of bucket %d", a, b)
				}
				if err := tab.Upsert(a, rec{key: a, n: 3}); err != nil {
					t.Fatal(err)
				}

				if got := tab.shift(st, path); got != tc.moves {
					t.Fatalf("shift = %v, want %v", got, tc.moves)
				}
				_, nb, _, ok := tab.locate(st, tab.hash(newcomer), match(newcomer))
				if want := map[bool]uint64{true: path[1].bucket, false: b}[tc.moves]; !ok || nb != want {
					t.Errorf("%s is in bucket %d (found %v), want %d", newcomer, nb, ok, want)
				}
				if occupied(live, i) == tc.moves {
					t.Errorf("the path's head slot is free = %v, want %v", !occupied(live, i), tc.moves)
				}
				model := map[string]rec{a: {key: a, n: 3}, newcomer: {key: newcomer, n: 2}}
				if n := unreadable(tab, model); n != 0 {
					t.Errorf("%d of 2 keys unreadable", n)
				}
				checkSlots(t, tab)
			})
		})
	}
}

// TestOnlyTheseReadAnItem pins, from the source, who may turn a slot into
// its key: locate (behind a matching tag), Oldest (its own-key exclusion and
// the victim it names), the migrator (a grown table reduces the whole hash
// to a new bucket count, and a slot holds only its tag) and Range's copy.
// The insert path — search, shift, displace, openSlot — is not among them;
// one function computes an alternate bucket; and a path carries tags, so
// its types name no key type.
func TestOnlyTheseReadAnItem(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	callers := map[string][]string{} // callee -> the functions calling it
	fileOf := map[string]string{}
	for name, file := range pkgs["generic"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fileOf[d.Name.Name] = name
				ast.Inspect(d, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := ""
					switch f := call.Fun.(type) {
					case *ast.Ident:
						callee = f.Name
					case *ast.SelectorExpr:
						callee = f.Sel.Name
					}
					if !slices.Contains(callers[callee], d.Name.Name) {
						callers[callee] = append(callers[callee], d.Name.Name)
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && (ts.Name.Name == "bfsNode" || ts.Name.Name == "pathEntry") && ts.TypeParams != nil {
						t.Errorf("%s has type parameters: a path carries tags, not keys", ts.Name.Name)
					}
				}
			}
		}
	}
	for callee, want := range map[string][]string{
		"keyOf":     {"keyAt"},
		"keyAt":     {"Oldest", "copyBucket", "locate", "migrateBucket", "moveOldSlot"},
		"altOf":     {"search", "twoBuckets"},
		"altBucket": nil,
	} {
		got := slices.Clone(callers[callee])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s is called by %v, want %v", callee, got, want)
		}
	}
	for _, f := range callers["keyAt"] {
		if fileOf[f] == "search.go" {
			t.Errorf("%s in search.go calls keyAt", f)
		}
	}
}

// TestSmallTableFixtures: what a table carries beside its slots — the Table
// itself, its lock words and their lock probes, the padded size counter and
// the slow-path probe — is sized by the table. A cuckood shard of 2 048
// slots (bucket width 4, the default, which DESIGN.md §8 measures against 8)
// is one of dozens, and beside its slot arrays it carries at most 4 KB: one
// lock word per two buckets (2 KB) and everything padded beside them, where
// a word per bucket and its counters made 7.9 KB and every table used to
// carry a whole store's: 19.5 KB. Measured as live heap over 64 of them,
// against 64 bare sets of slot arrays measured the same way, so an
// allocation added per table shows and the arrays' own size-class rounding
// does not.
func TestSmallTableFixtures(t *testing.T) {
	const tables, slots, stripes = 64, 2048, 256
	base := liveHeap()
	var arrays [tables]struct {
		vals []*rec
		tags []uint32
	}
	for i := range arrays {
		arrays[i].vals, arrays[i].tags = make([]*rec, slots), make([]uint32, slots/4)
	}
	arrayBytes := float64(liveHeap()-base) / tables
	runtime.KeepAlive(&arrays)

	base = liveHeap()
	var tabs [tables]*Table[string, *rec]
	for i := range tabs {
		tab, err := NewKeyed(Config{InitialCapacity: slots, MaxCapacity: slots},
			func(r *rec) string { return r.key })
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	fixtures := float64(liveHeap()-base)/tables - arrayBytes
	t.Logf("%.0f B of slot arrays and %.0f B of fixtures per table", arrayBytes, fixtures)
	if tabs[0].Cap() != slots || tabs[0].locks.Len() != stripes || fixtures > 4096 {
		t.Errorf("%.0f B of fixtures beside %d slots and %d lock words, want <= 4096 beside %d and %d",
			fixtures, tabs[0].Cap(), tabs[0].locks.Len(), slots, stripes)
	}
	runtime.KeepAlive(&tabs)
}
