package generic

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// rec is a value that carries its key, so one element type serves both
// constructions: New stores rec.key a second time beside it, NewKeyed
// reads it out of the value.
type rec struct {
	key string
	n   int
}

func recKey(r rec) string { return r.key }

// constructions are the two ways to build a Table. Every test in this file
// runs against both from one body: they are one engine, and the tests are
// what says so.
var constructions = []struct {
	name string
	mk   func(Config) (*Table[string, rec], error)
}{
	{"plain", func(c Config) (*Table[string, rec], error) { return New[string, rec](c) }},
	{"keyed", func(c Config) (*Table[string, rec], error) { return NewKeyed(c, recKey) }},
}

func eachConstruction(t *testing.T, cfg Config, body func(t *testing.T, tab *Table[string, rec])) {
	for _, c := range constructions {
		t.Run(c.name, func(t *testing.T) {
			tab, err := c.mk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if keyed := tab.loadState().live.keys == nil; keyed != (c.name == "keyed") {
				t.Fatalf("key array present = %v in a %s table", !keyed, c.name)
			}
			body(t, tab)
		})
	}
}

func TestNewKeyedNeedsKeyOf(t *testing.T) {
	if _, err := NewKeyed[string, rec](Config{}, nil); err == nil {
		t.Fatal("NewKeyed accepted a nil keyOf")
	}
	// The configurations every constructor refuses.
	for _, cfg := range []Config{
		{Associativity: 33},
		{LockStripes: 3},
		{InitialCapacity: 1024, MaxCapacity: 512},
	} {
		if _, err := New[uint64, uint64](cfg); err == nil {
			t.Errorf("New accepted %+v", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustNew accepted %+v", cfg)
				}
			}()
			MustNew[uint64, uint64](cfg)
		}()
	}
}

// checkSlots walks every slot of every generation and requires the two
// invariants the arrays keep. A slot's tag is nonzero exactly when the slot
// holds an entry, and then it is the tag of that entry's key. And an entry
// sits in one of its key's two buckets in that generation — firstBucket, or
// the bucket the tag names from there — which is what lets a
// displacement move it on its tag alone. The witnesses that do not go
// through the tags: the table's own count of its entries (as many nonzero
// tags as Len), no key in two slots, and a zero key and value in every slot
// whose tag is zero. Single-goroutine use only, on a table no sweeper is
// still draining.
func checkSlots[K comparable, V any](t testing.TB, tab *Table[K, V]) {
	t.Helper()
	for _, fault := range slotFaults(tab) {
		t.Error(fault)
	}
}

// firstBucket is a key's first bucket among n, spelled out here rather than
// taken from twoBuckets: the hash below its tag byte, scaled to [0, n).
func firstBucket(h, n uint64) uint64 {
	b, _ := bits.Mul64(h<<8, n)
	return b
}

func slotFaults[K comparable, V any](tab *Table[K, V]) (faults []string) {
	st := tab.loadState()
	arrs := []*tArrays[K, V]{st.live}
	for _, g := range st.olds {
		arrs = append(arrs, g.arr)
	}
	seen := make(map[K]bool)
	for gen, arr := range arrs {
		for i := range arr.vals {
			i := uint64(i)
			if !occupied(arr, i) {
				if !reflect.ValueOf(arr.vals[i]).IsZero() || (arr.keys != nil && !reflect.ValueOf(arr.keys[i]).IsZero()) {
					faults = append(faults, fmt.Sprintf("generation %d slot %d: tag 0 over a key or value", gen, i))
				}
				continue
			}
			k := tab.keyAt(arr, i)
			h := tab.hash(k)
			if got, want := slotTag(arr, i), tagOf(h); got != want {
				faults = append(faults, fmt.Sprintf("generation %d slot %d: tag %#x, its key's is %#x", gen, i, got, want))
			}
			if b, b1 := i/tab.assoc, firstBucket(h, arr.buckets); b != b1 && b != altOf(b1, tagOf(h), arr.buckets) {
				faults = append(faults, fmt.Sprintf("generation %d slot %d: %v sits in bucket %d, its two are %d and %d", gen, i, k, b, b1, altOf(b1, tagOf(h), arr.buckets)))
			}
			if seen[k] {
				faults = append(faults, fmt.Sprintf("generation %d slot %d: a second copy of %v", gen, i, k))
			}
			seen[k] = true
		}
	}
	if n := tab.Len(); uint64(len(seen)) != n {
		faults = append(faults, fmt.Sprintf("%d slots have a tag, Len is %d", len(seen), n))
	}
	return faults
}

// TestCheckSlotsSeesFaults is checkSlots's own mutation check: an entry
// whose tag reads empty, an empty slot whose tag reads occupied, a wrong
// tag and an entry in a bucket that is neither of its key's two each turn
// it red.
func TestCheckSlotsSeesFaults(t *testing.T) {
	eachConstruction(t, Config{InitialCapacity: 256, DisableBackgroundSweep: true}, func(t *testing.T, tab *Table[string, rec]) {
		for i := range 100 {
			k := fmt.Sprintf("key-%d", i)
			if err := tab.Insert(k, rec{key: k, n: i + 1}); err != nil {
				t.Fatal(err)
			}
		}
		if faults := slotFaults(tab); len(faults) != 0 {
			t.Fatalf("a freshly filled table: %v", faults)
		}
		live := tab.loadState().live
		var used, free uint64
		for i := range live.vals {
			if occupied(live, uint64(i)) {
				used = uint64(i)
			} else {
				free = uint64(i)
			}
		}
		for _, m := range []struct {
			name string
			slot uint64
			tag  uint8
		}{
			{"an entry under tag 0", used, 0},
			{"a tag over an empty slot", free, 7},
			{"another key's tag", used, slotTag(live, used)%255 + 1},
		} {
			was := slotTag(live, m.slot)
			setSlotTag(live, m.slot, m.tag)
			if len(slotFaults(tab)) == 0 {
				t.Errorf("%s: checkSlots saw nothing", m.name)
			}
			setSlotTag(live, m.slot, was)
		}

		// A key in a third bucket, tag and all: only the placement check can
		// see it.
		b1, b2 := twoBuckets(tab.hash(tab.keyAt(live, used)), live.buckets)
		third := uint64(0)
		for third == b1 || third == b2 || occupied(live, third*tab.assoc) {
			third++
		}
		tab.moveSlot(live, third, 0, live, used/tab.assoc, int(used%tab.assoc))
		if faults := slotFaults(tab); len(faults) != 1 {
			t.Errorf("an entry in a third bucket: checkSlots reports %v", faults)
		}
		tab.moveSlot(live, used/tab.assoc, int(used%tab.assoc), live, third, 0)
		checkSlots(t, tab)
	})
}

// unreadable counts the model's keys the table does not return with their
// value, through Get and through GetBytes.
func unreadable(tab *Table[string, rec], model map[string]rec) int {
	bad := 0
	for k, want := range model {
		if got, ok := tab.Get(k); !ok || got != want {
			bad++
		} else if got, ok := GetBytes(tab, []byte(k)); !ok || got != want {
			bad++
		}
	}
	return bad
}

// TestModel drives both constructions through a seeded sequence of every
// operation against a map oracle, across several grows whose migration
// advances only when the sequence says so (MigrateBatch is one of the
// operations), and checks every result, the final contents and the tag of
// every resident slot.
func TestModel(t *testing.T) {
	cfg := Config{InitialCapacity: 64, MigrateBatch: -1, DisableBackgroundSweep: true}
	eachConstruction(t, cfg, func(t *testing.T, tab *Table[string, rec]) {
		rnd := rand.New(rand.NewSource(19))
		model := map[string]rec{}
		const universe = 3000
		grewMidway := false
		for step := 0; step < 40000; step++ {
			key := fmt.Sprintf("key-%d", rnd.Intn(universe))
			val := rec{key: key, n: step}
			switch op := rnd.Intn(100); {
			case op < 30:
				err := tab.Insert(key, val)
				if _, present := model[key]; present != errors.Is(err, ErrExists) || (!present && err != nil) {
					t.Fatalf("step %d Insert(%s) = %v with present=%v", step, key, err, present)
				} else if !present {
					model[key] = val
				}
			case op < 50:
				if err := tab.Upsert(key, val); err != nil {
					t.Fatalf("step %d Upsert(%s): %v", step, key, err)
				}
				model[key] = val
			case op < 65:
				_, present := model[key]
				if got := tab.Delete(key); got != present {
					t.Fatalf("step %d Delete(%s) = %v, want %v", step, key, got, present)
				}
				delete(model, key)
			case op < 80:
				want, present := model[key]
				if got, ok := tab.Get(key); ok != present || got != want {
					t.Fatalf("step %d Get(%s) = %+v,%v want %+v,%v", step, key, got, ok, want, present)
				}
			case op < 90:
				want, present := model[key]
				if got, ok := GetBytes(tab, []byte(key)); ok != present || got != want {
					t.Fatalf("step %d GetBytes(%s) = %+v,%v want %+v,%v", step, key, got, ok, want, present)
				}
			case op < 94:
				checkOldest(t, tab, model, key)
			case op < 98:
				grewMidway = grewMidway || tab.Growing()
				tab.MigrateBatch(1 + rnd.Intn(3))
			case op < 99:
				if step%7 == 0 { // a full walk drains the migration: keep it rare
					checkRange(t, tab, model)
				}
			default:
				if rnd.Intn(50) == 0 {
					tab.Clear()
					clear(model)
				}
			}
			if tab.Len() != uint64(len(model)) {
				t.Fatalf("step %d: Len = %d, model has %d", step, tab.Len(), len(model))
			}
		}
		if !grewMidway {
			t.Fatal("the sequence never ran an operation during a migration")
		}
		if n := unreadable(tab, model); n != 0 {
			t.Fatalf("%d of %d keys unreadable at the end", n, len(model))
		}
		checkRange(t, tab, model)
		checkSlots(t, tab)
	})
}

// checkOldest: the victim is a resident key other than key, it lives in
// one of key's two live buckets, and nothing else there ranks before it.
func checkOldest(t *testing.T, tab *Table[string, rec], model map[string]rec, key string) {
	t.Helper()
	older := func(a, b rec) bool { return a.n < b.n }
	victim, ok := tab.Oldest(key, older)
	live := tab.loadState().live
	b1, b2 := twoBuckets(tab.hash(key), live.buckets)
	var want string
	found := false
	for _, b := range [2]uint64{b1, b2} {
		for s := uint64(0); s < tab.assoc; s++ {
			i := b*tab.assoc + s
			if !occupied(live, i) || tab.keyAt(live, i) == key {
				continue
			}
			if !found || older(live.vals[i], model[want]) {
				want, found = tab.keyAt(live, i), true
			}
		}
	}
	if ok != found || victim != want {
		t.Fatalf("Oldest(%s) = %q,%v, the buckets say %q,%v", key, victim, ok, want, found)
	}
	if _, resident := model[victim]; ok && !resident {
		t.Fatalf("Oldest(%s) named %q, which is not in the table", key, victim)
	}
}

func checkRange(t *testing.T, tab *Table[string, rec], model map[string]rec) {
	t.Helper()
	seen := map[string]rec{}
	for k, v := range tab.All() {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range yielded %s twice", k)
		}
		seen[k] = v
	}
	if len(seen) != len(model) {
		t.Fatalf("Range yielded %d entries, model has %d", len(seen), len(model))
	}
	for k, want := range model {
		if seen[k] != want {
			t.Fatalf("Range yielded %s = %+v, want %+v", k, seen[k], want)
		}
	}
}

// TestTagAndBucketCollisions: keys that share their first bucket and their
// tag — the tag says "maybe" for all of them in every probe of that bucket
// — are still told apart by the full key, by every operation.
func TestTagAndBucketCollisions(t *testing.T) {
	cfg := Config{InitialCapacity: 256, MaxCapacity: 256}
	eachConstruction(t, cfg, func(t *testing.T, tab *Table[string, rec]) {
		buckets := tab.loadState().live.buckets
		type class struct {
			b1  uint64
			tag uint8
		}
		byClass := map[class][]string{}
		var colliders []string
		for i := 0; len(colliders) == 0; i++ {
			if i == 5_000_000 {
				t.Fatal("no six keys share a bucket and a tag")
			}
			k := fmt.Sprintf("c%d", i)
			h := tab.hash(k)
			b1, _ := twoBuckets(h, buckets)
			c := class{b1, tagOf(h)}
			// Six: the shared bucket holds four, so two live in their second
			// buckets and at least one probe walks past same-tag strangers.
			if byClass[c] = append(byClass[c], k); len(byClass[c]) == 6 {
				colliders = byClass[c]
			}
		}
		model := map[string]rec{}
		for i, k := range colliders {
			v := rec{key: k, n: i}
			if err := tab.Insert(k, v); err != nil {
				t.Fatalf("Insert(%s): %v", k, err)
			}
			model[k] = v
		}
		if n := unreadable(tab, model); n != 0 {
			t.Fatalf("%d of %d colliding keys read back wrong", n, len(model))
		}
		for _, k := range colliders {
			if err := tab.Insert(k, rec{}); !errors.Is(err, ErrExists) {
				t.Fatalf("Insert(%s) again = %v, want ErrExists", k, err)
			}
		}
		gone := colliders[2]
		if !tab.Delete(gone) || tab.Delete(gone) {
			t.Fatalf("Delete(%s) did not remove exactly that key", gone)
		}
		delete(model, gone)
		up := colliders[4]
		model[up] = rec{key: up, n: 99}
		if err := tab.Upsert(up, model[up]); err != nil {
			t.Fatal(err)
		}
		if n := unreadable(tab, model); n != 0 {
			t.Fatalf("%d colliding keys read back wrong after a delete and an overwrite", n)
		}
		if _, ok := tab.Get(gone); ok {
			t.Fatalf("%s is still readable after its delete", gone)
		}
		if victim, ok := tab.Oldest(colliders[0], func(a, b rec) bool { return a.n < b.n }); !ok || victim == colliders[0] {
			t.Fatalf("Oldest(%s) = %q,%v: it must skip the key itself, not its tag twins", colliders[0], victim, ok)
		}
	})
}

// TestTagTravelsWithSlot fills a fixed table to 0.95 — thousands of BFS
// displacements — and a growing one through several migrations, then
// requires every key readable and every resident slot to carry its own
// key's tag. The last part is the mutation check: one deliberately wrong
// tag must turn both instruments red, or they prove nothing.
func TestTagTravelsWithSlot(t *testing.T) {
	for _, cfg := range []struct {
		name string
		Config
		n int
	}{
		{"displace", Config{InitialCapacity: 4096, MaxCapacity: 4096}, 3891}, // 0.95 of 4096
		{"migrate", Config{InitialCapacity: 64, MigrateBatch: 1, DisableBackgroundSweep: true}, 5000},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			eachConstruction(t, cfg.Config, func(t *testing.T, tab *Table[string, rec]) {
				model := map[string]rec{}
				for i := 0; i < cfg.n; i++ {
					v := rec{key: fmt.Sprintf("fill-%d", i), n: i}
					if err := tab.Insert(v.key, v); err != nil {
						t.Fatalf("Insert #%d at load %.3f: %v", i, tab.LoadFactor(), err)
					}
					model[v.key] = v
				}
				st := tab.Stats()
				if cfg.name == "displace" && st.Displacements == 0 {
					t.Fatal("the fill displaced nothing")
				}
				if cfg.name == "migrate" && (st.Grows < 3 || st.MigratedBuckets == 0) {
					t.Fatalf("the fill grew %d times and migrated %d buckets", st.Grows, st.MigratedBuckets)
				}
				if n := unreadable(tab, model); n != 0 {
					t.Fatalf("%d of %d keys lost", n, len(model))
				}
				checkSlots(t, tab)
				if t.Failed() {
					return
				}

				// Mutation: spoil the tag of one resident slot.
				live := tab.loadState().live
				for i := range uint64(len(live.vals)) {
					if tag := slotTag(live, i); tag != 0 && tag != 0x5a { // 0x5a^0x5a would read as empty
						setSlotTag(live, i, tag^0x5a)
						break
					}
				}
				if faults := slotFaults(tab); len(faults) != 1 {
					t.Fatalf("checkSlots after spoiling one tag: %v", faults)
				}
				if n := unreadable(tab, model); n != 1 {
					t.Fatalf("%d keys unreadable after spoiling one tag: the tag is not what a probe compares first", n)
				}
			})
		})
	}
}

// TestStripesNeverExceedBuckets: a table capped at MaxCapacity grows to
// exactly that many slots, and allocates at most one stripe per two buckets
// it will have at the cap (the largest power of two that is), and none it
// can never take (IndexFor is bucket & mask, so stripes past the bucket
// count at the cap are dead words — 28 of 32 KB for a 2 048-slot shard).
func TestStripesNeverExceedBuckets(t *testing.T) {
	for _, tc := range []struct {
		initial, max uint64
		stripes      int // Config.LockStripes; 0 = default 4096
		want         int
	}{
		{256, 2048, 0, 256},     // a cuckood shard of wire-set-evict: 512 buckets at the cap
		{2048, 2048, 0, 256},    // born at the cap
		{1024, 0, 0, 4096},      // uncapped: the default stands
		{8192, 65536, 0, 4096},  // 16 384 buckets at the cap: the default is the smaller
		{64, 3000, 0, 256},      // 750 buckets at the cap: 256 stripes, not 375
		{256, 2048, 64, 64},     // an explicit smaller table is left alone
		{4096, 4096, 8192, 512}, // and an explicit larger one is clamped too
		{8, 8, 0, 1},            // two buckets at the cap share the one stripe
	} {
		tab, err := New[int, int](Config{InitialCapacity: tc.initial, MaxCapacity: tc.max, LockStripes: tc.stripes,
			DisableBackgroundSweep: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.locks.Len(); got != tc.want {
			t.Errorf("initial %d max %d stripes %d: %d stripes, want %d", tc.initial, tc.max, tc.stripes, got, tc.want)
		}
		if tc.max == 0 {
			continue
		}
		// Fill to the cap: the table must get there, and end with at least
		// two buckets per stripe.
		for k := 0; ; k++ {
			if err := tab.Upsert(k, k); err != nil {
				break
			}
		}
		if tab.Cap() != tc.max {
			t.Errorf("initial %d max %d: refused at %d slots", tc.initial, tc.max, tab.Cap())
		}
		if buckets := tab.loadState().live.buckets; 2*uint64(tab.locks.Len()) > buckets {
			t.Errorf("initial %d max %d: %d stripes over %d buckets at the cap", tc.initial, tc.max, tab.locks.Len(), buckets)
		}
	}
}

// TestConcurrentKeyed runs writers, readers and a migrator against a keyed
// table through several grows: under -race this is what checks that a key
// is only ever read out of a value under that slot's stripe.
func TestConcurrentKeyed(t *testing.T) {
	eachConstruction(t, Config{InitialCapacity: 64, MigrateBatch: 1}, func(t *testing.T, tab *Table[string, rec]) {
		const writers, perWriter = 4, 1500
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					k := fmt.Sprintf("w%d-%d", w, i)
					if err := tab.Insert(k, rec{key: k, n: i}); err != nil {
						t.Errorf("Insert(%s): %v", k, err)
						return
					}
					if i%3 == 0 {
						if err := tab.Upsert(k, rec{key: k, n: -i}); err != nil {
							t.Errorf("Upsert(%s): %v", k, err)
							return
						}
					}
					if i%5 == 4 {
						prev := fmt.Sprintf("w%d-%d", w, i-1)
						if !tab.Delete(prev) {
							t.Errorf("Delete(%s) found nothing", prev)
							return
						}
					}
				}
			}(w)
		}
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					k := fmt.Sprintf("w%d-%d", n%writers, n%perWriter)
					if v, ok := tab.Get(k); ok && v.key != k {
						t.Errorf("Get(%s) returned %s's value", k, v.key)
						return
					}
					if v, ok := GetBytes(tab, []byte(k)); ok && v.key != k {
						t.Errorf("GetBytes(%s) returned %s's value", k, v.key)
						return
					}
					if n%64 == 0 {
						tab.Oldest(k, func(a, b rec) bool { return a.n < b.n })
						tab.MigrateBatch(2)
					}
				}
			}(r)
		}
		wg.Wait()
		close(stop)
		readers.Wait()
		if t.Failed() {
			return
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				want, present := rec{key: k, n: i}, i%5 != 3 // i%5 == 4 deleted its predecessor
				if i%3 == 0 {
					want.n = -i
				}
				if got, ok := tab.Get(k); ok != present || (ok && got != want) {
					t.Fatalf("%s = %+v,%v want %+v,%v", k, got, ok, want, present)
				}
			}
		}
		for tab.Growing() {
			tab.MigrateBatch(64)
		}
		checkSlots(t, tab)
	})
}

// TestKeyedSlotBytes: a keyed table of pointer-sized values costs one
// pointer and one tag byte per slot — nine bytes — plus fixtures that do not
// grow with it (stripes, counters: 0.2 B per slot here). Measured as live
// heap, so an array added beside vals and tags shows.
func TestKeyedSlotBytes(t *testing.T) {
	const slots = 1 << 18
	base := liveHeap()
	tab, err := NewKeyed(Config{InitialCapacity: slots, DisableBackgroundSweep: true}, func(r *rec) string { return r.key })
	if err != nil {
		t.Fatal(err)
	}
	per := float64(liveHeap()-base) / float64(tab.Cap())
	t.Logf("%d slots: %.2f B of live heap per slot", tab.Cap(), per)
	if tab.Cap() != slots || per > 9.5 {
		t.Errorf("%d slots at %.2f B each, want %d at <= 9.5", tab.Cap(), per, slots)
	}
	runtime.KeepAlive(tab)
}

// liveHeap returns the bytes of heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
