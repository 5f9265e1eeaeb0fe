package generic

import (
	"fmt"
	"testing"
)

// The go test -bench rung for the table's own operations (ROADMAP item
// 6(b)): what a change to pin, locate or the write path costs, measured
// without the repository benchmark's socket, client and wrapper in front
// of it. To compare two commits, build each one's test binary once and run
// them alternately (results/PAIR_pin.txt has the procedure and a reading):
//
//	go test -c -o /tmp/head.test ./generic
//	/tmp/head.test -test.run '^$' -test.bench . -test.cpu 1 -test.benchtime 2000000x
//
// The table is a cuckood shard's shape at the repository benchmark's
// prefill: 131 072 slots holding 100 000 sixteen-byte keys (load 0.76),
// V one pointer to a record that carries its key (*rec, keyed_test.go).

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
// draining generation, the doubled live one empty, so a probe walks both.
func benchTable(b *testing.B, mk func(Config) (*Table[string, *rec], error), keys []string, migrating bool) *Table[string, *rec] {
	tab, err := mk(Config{InitialCapacity: benchSlots, MigrateBatch: -1, DisableBackgroundSweep: true})
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
