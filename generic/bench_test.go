package generic

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// The go test -bench rung for the table's own operations: what a change to
// pin, locate, the write path or a table's fixtures costs, measured
// without the repository benchmark's socket, client and wrapper in front
// of it. To compare two commits, build each one's test binary once and run
// them alternately (results/PAIR_pin.txt has the procedure and a reading):
//
//	go test -c -o /tmp/head.test ./generic
//	/tmp/head.test -test.run '^$' -test.bench . -test.cpu 1 -test.benchtime 2000000x
//
// make bench-rung RUNG=<regexp> BASE=<rev> is that procedure as a target
// (scripts/bench-rung.sh): it copies this file over BASE's, so what it
// uses of the package must exist on both sides.
//
// The table is a cuckood shard's shape at the repository benchmark's
// prefill while shards doubled: 131 072 slots holding 100 000 sixteen-byte
// keys (load 0.76; growing by half, a shard stops at 0.90), V one pointer
// to a record that carries its key (*rec, keyed_test.go). The size stays a
// power of two so that a commit whose tables had only such sizes builds the
// same table.

const (
	benchSlots = 1 << 17
	benchKeys  = 100000
)

var benchConstructions = []struct {
	name string
	mk   func(Config) (*Table[string, *rec], error)
}{
	{"keyed", func(c Config) (*Table[string, *rec], error) {
		return NewKeyed(c, func(r *rec) string { return r.key })
	}},
	{"plain", func(c Config) (*Table[string, *rec], error) { return New[string, *rec](c) }},
	// The paper's bucket width beside the default 4: twice the tags a probe
	// compares, for the choice of a shard's Associativity (DESIGN.md §8).
	{"keyed8", func(c Config) (*Table[string, *rec], error) {
		c.Associativity = 8
		return NewKeyed(c, func(r *rec) string { return r.key })
	}},
}

// benchKeySet returns n sixteen-byte keys under prefix (three bytes), as
// strings and as the bytes a connection buffer would hold.
func benchKeySet(prefix string, n int) ([]string, [][]byte) {
	strs, raw := make([]string, n), make([][]byte, n)
	for i := range strs {
		strs[i] = fmt.Sprintf("%s-%012d", prefix, i)
		raw[i] = []byte(strs[i])
	}
	return strs, raw
}

// benchTable builds a table holding keys. Migrating leaves it as a grow
// has just published it and nothing has drained it since: every key in the
// draining generation, the grown live one empty, so a probe walks both.
func benchTable(b *testing.B, mk func(Config) (*Table[string, *rec], error), keys []string, migrating bool) *Table[string, *rec] {
	tab, err := mk(Config{InitialCapacity: benchSlots})
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range keys {
		if err := tab.Insert(k, &rec{key: k, n: i}); err != nil {
			b.Fatal(err)
		}
	}
	if tab.Growing() {
		b.Fatal("the fill grew the table")
	}
	if migrating {
		forceGrow(tab)
	}
	return tab
}

var benchSink *rec

// benchReads runs read over {keyed, plain} x {settled, migrating} x {hit,
// miss}; read looks up the i-th of the keys it is given.
func benchReads(b *testing.B, read func(tab *Table[string, *rec], strs []string, raw [][]byte, i int) (*rec, bool)) {
	hitS, hitB := benchKeySet("key", benchKeys)
	missS, missB := benchKeySet("mis", benchKeys)
	for _, c := range benchConstructions {
		for _, state := range []string{"settled", "migrating"} {
			tab := benchTable(b, c.mk, hitS, state == "migrating")
			for _, probe := range []struct {
				name string
				strs []string
				raw  [][]byte
			}{{"hit", hitS, hitB}, {"miss", missS, missB}} {
				b.Run(c.name+"/"+state+"/"+probe.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						v, ok := read(tab, probe.strs, probe.raw, i%benchKeys)
						if ok != (probe.name == "hit") {
							b.Fatalf("lookup %d: found = %v", i, ok)
						}
						benchSink = v
					}
				})
			}
		}
	}
}

func BenchmarkGetBytes(b *testing.B) {
	benchReads(b, func(tab *Table[string, *rec], _ []string, raw [][]byte, i int) (*rec, bool) {
		return GetBytes(tab, raw[i])
	})
}

func BenchmarkGet(b *testing.B) {
	benchReads(b, func(tab *Table[string, *rec], strs []string, _ [][]byte, i int) (*rec, bool) {
		return tab.Get(strs[i])
	})
}

// BenchmarkDeleteUpsert is the write path's two probes: a Delete that
// finds its key and an Upsert that does not, on a settled table.
func BenchmarkDeleteUpsert(b *testing.B) {
	keys, _ := benchKeySet("key", benchKeys)
	for _, c := range benchConstructions {
		tab := benchTable(b, c.mk, keys, false)
		vals := make([]*rec, len(keys))
		for i, k := range keys {
			vals[i], _ = tab.Get(k)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := i % benchKeys
				if !tab.Delete(keys[k]) {
					b.Fatalf("Delete(%s) = false", keys[k])
				}
				if err := tab.Upsert(keys[k], vals[k]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fillToRefusal inserts keys into a fresh fixed-size keyed table of that
// many slots until the first ErrFull — every full bucket pair on the way is
// a path search, so this is the insert slow path's rung — and returns the
// inserts that landed, the time they took, the load factor reached and how
// often the table asked a value for its key. last and lastTook are the
// fill's final tenth of inserts, the densest, and the time they took,
// timed from the last of the clock readings taken every 2^shift inserts
// (about 512 a fill) that precedes it.
func fillToRefusal(b *testing.B, assoc int, slots uint64, keys []string, vals []*rec) (inserts int, took time.Duration, load float64, keyOfs, last int, lastTook time.Duration, lastSearches uint64) {
	tab, err := NewKeyed(Config{InitialCapacity: slots, MaxCapacity: slots, Associativity: assoc,
		DisableAutoGrow: true},
		func(r *rec) string { keyOfs++; return r.key })
	if err != nil {
		b.Fatal(err)
	}
	shift := max(0, bits.Len(uint(len(keys)))-10)
	marks := make([]time.Duration, 0, len(keys)>>shift+1)
	searches := make([]uint64, 0, len(keys)>>shift+1)
	start := time.Now()
	for i, k := range keys {
		if i&(1<<shift-1) == 0 {
			now := time.Now()
			marks = append(marks, now.Sub(start))
			searches = append(searches, tab.Stats().Searches)
			start = start.Add(time.Since(now)) // reading the count is not the fill's time
		}
		if err := tab.Insert(k, vals[i]); err != nil {
			if !errors.Is(err, ErrFull) {
				b.Fatal(err)
			}
			took = time.Since(start)
			from := (i - i/10) >> shift
			return i, took, tab.LoadFactor(), keyOfs, i - from<<shift, took - marks[from], tab.Stats().Searches - searches[from]
		}
	}
	b.Fatalf("%d keys never filled %d slots", len(keys), slots)
	return
}

// BenchmarkFillToRefusal fills keyed tables of a shard's size and of a
// DRAM-resident size to their first refusal, whole fills until b.N inserts
// have been made (at least one), and reports per insert the time and the
// keyOf calls, the time and the path searches per insert over each fill's
// final tenth (ns/insert-last-decile and searches/insert-last-decile, the
// dense end where inserts search paths), and the load at refusal. b.N only
// says when to stop, so ns/op is suppressed.
func BenchmarkFillToRefusal(b *testing.B) {
	for _, slots := range []uint64{2048, 1 << 20} {
		// One key more than slots: a small table now and then takes every
		// key it has room for, and the fill must still end in a refusal.
		keys, _ := benchKeySet("fil", int(slots)+1)
		vals := make([]*rec, len(keys))
		for i, k := range keys {
			vals[i] = &rec{key: k, n: i}
		}
		for _, assoc := range []int{4, 8} {
			b.Run(fmt.Sprintf("B%d/slots%d", assoc, slots), func(b *testing.B) {
				var inserts, keyOfs, fills, last int
				var took, lastTook time.Duration
				var loads float64
				var lastSearches uint64
				for inserts < b.N {
					n, d, load, calls, ln, ld, ls := fillToRefusal(b, assoc, slots, keys, vals)
					inserts, took, loads, keyOfs, fills = inserts+n, took+d, loads+load, keyOfs+calls, fills+1
					last, lastTook, lastSearches = last+ln, lastTook+ld, lastSearches+ls
				}
				b.ReportMetric(0, "ns/op")
				b.ReportMetric(float64(took.Nanoseconds())/float64(inserts), "ns/insert")
				b.ReportMetric(float64(lastTook.Nanoseconds())/float64(last), "ns/insert-last-decile")
				b.ReportMetric(float64(lastSearches)/float64(last), "searches/insert-last-decile")
				b.ReportMetric(loads/float64(fills), "load")
				b.ReportMetric(float64(keyOfs)/float64(inserts), "keyOf/insert")
			})
		}
	}
}

// BenchmarkInsertDeletePair is two goroutines on one shard-sized keyed table
// (2 048 slots, half full), each inserting and deleting keys of its own:
// every operation takes the table's stripes and moves its size counter, so
// it is where a table's counters and lock probes would show if they were
// too narrow to keep two writers apart. Only meaningful at -cpu 2 or more
// (make bench-rung CPU=2).
func BenchmarkInsertDeletePair(b *testing.B) {
	const slots, writers, own = 2048, 2, 256
	tab, err := NewKeyed(Config{InitialCapacity: slots, MaxCapacity: slots, DisableAutoGrow: true},
		func(r *rec) string { return r.key })
	if err != nil {
		b.Fatal(err)
	}
	keys, _ := benchKeySet("par", slots/2+writers*own)
	vals := make([]*rec, len(keys))
	for i, k := range keys {
		vals[i] = &rec{key: k, n: i}
	}
	for i := 0; i < slots/2; i++ {
		if err := tab.Insert(keys[i], vals[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := slots/2 + w*own
			for i := 0; i < b.N/writers; i++ {
				k := mine + i%own
				if err := tab.Insert(keys[k], vals[k]); err != nil {
					b.Error(err)
					return
				}
				if !tab.Delete(keys[k]) {
					b.Errorf("Delete(%s) = false", keys[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// stwTable is the pre-incremental resize strategy, preserved here as the
// benchmark baseline: readers and writers share an RWMutex, and a full
// table is grown by taking the write lock, allocating a doubled table,
// and reinserting every entry while every other operation waits. This is
// exactly what generic.Table did before the two-generation migrator
// (docs/DESIGN.md, "stop-the-world events"), so BenchmarkGrowPause
// measures the old path against the new one on identical workloads.
type stwTable struct {
	mu       sync.RWMutex
	tab      *Table[uint64, uint64]
	capSlots uint64
}

func newSTWTable(initial uint64) *stwTable {
	t, err := New[uint64, uint64](Config{InitialCapacity: initial, DisableAutoGrow: true})
	if err != nil {
		panic(err)
	}
	return &stwTable{tab: t, capSlots: initial}
}

func (s *stwTable) insert(key, val uint64) {
	for {
		s.mu.RLock()
		err := s.tab.Insert(key, val)
		s.mu.RUnlock()
		if err == nil {
			return
		}
		if err != ErrFull {
			panic(err)
		}
		s.rebuild()
	}
}

// rebuild is the stop-the-world grow: everything blocks behind the write
// lock while the whole table is copied. A racing thread that also saw
// ErrFull re-checks under the lock so the table is not doubled twice for
// one fill level.
func (s *stwTable) rebuild() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tab.LoadFactor() < 0.5 {
		return // another thread already rebuilt
	}
	next, err := New[uint64, uint64](Config{InitialCapacity: s.capSlots * 2, DisableAutoGrow: true})
	if err != nil {
		panic(err)
	}
	s.tab.Range(func(k, v uint64) bool {
		if err := next.Insert(k, v); err != nil {
			panic(err)
		}
		return true
	})
	s.tab = next
	s.capSlots *= 2
}

// timedInserts inserts keys 0..n-1, each writer a contiguous range of its
// own, and returns every insert's latency, indexed by key.
func timedInserts(writers int, n uint64, insert func(key uint64)) []time.Duration {
	lats := make([]time.Duration, n)
	var wg sync.WaitGroup
	for w := range uint64(writers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w * n / uint64(writers); k < (w+1)*n/uint64(writers); k++ {
				t0 := time.Now()
				insert(k)
				lats[k] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return lats
}

// BenchmarkGrowPause is what a resize costs the insert that meets it: 2^19
// unique inserts into a table of 2^14 slots (six doublings for stw, nine
// grows by half for incremental), every insert timed, by GOMAXPROCS
// writers. stw is the rebuild under a write lock above:
// the insert that finds the table full copies all of it while every other
// writer waits, so that pause grows with the table. incremental is Table as
// shipped, default Config: a grow is a pointer flip, and each insert made
// while a migration is in flight drains a bounded batch of buckets, beside
// the background sweeper. Whole fills run until b.N inserts have been
// made (at least one); the longest insert (max-µs) and the 99th percentile
// (p99-µs) are averaged over the fills, and ns/op is suppressed.
func BenchmarkGrowPause(b *testing.B) {
	const n, initial = 1 << 19, 1 << 14
	writers := runtime.GOMAXPROCS(0)
	for _, mode := range []string{"stw", "incremental"} {
		b.Run(mode, func(b *testing.B) {
			var maxUS, p99US, fills float64
			for inserts := 0; inserts < b.N; inserts += n {
				runtime.GC() // charge no earlier fill's garbage to a timed insert
				var insert func(k, v uint64)
				if mode == "stw" {
					insert = newSTWTable(initial).insert
				} else {
					tab, err := New[uint64, uint64](Config{InitialCapacity: initial})
					if err != nil {
						b.Fatal(err)
					}
					insert = func(k, v uint64) {
						if err := tab.Insert(k, v); err != nil {
							b.Error(err)
						}
					}
				}
				lats := timedInserts(writers, n, func(k uint64) { insert(k, k) })
				slices.Sort(lats)
				maxUS += float64(lats[n-1]) / float64(time.Microsecond)
				p99US += float64(lats[n*99/100]) / float64(time.Microsecond)
				fills++
			}
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(maxUS/fills, "max-µs")
			b.ReportMetric(p99US/fills, "p99-µs")
		})
	}
}
