package txn

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"cuckoohash/internal/workload"
)

// BenchmarkIncrZipf is INCR under heavy zipf skew (s = 1.2 over 1 024
// counters), the workload split counters exist for. naive disables
// promotion, so every INCR is a parse/format/store round trip under
// mapKV's lock; split promotes the 64 hottest ranks up front,
// so a hot INCR is a shard-local add until ReconcileAll folds it, inside the
// timed region. mixed walks the whole stream; hot-head walks the same draws
// restricted to the promoted ranks, where the two paths differ on every op
// (the cold tail takes the pinned path in both). Each RunParallel goroutine
// walks a stream of its own, drawn before the timer. The subsystem's bar is
// split >= 3x naive on hot-head; exactness is TestConcurrentIncrExact's.
func BenchmarkIncrZipf(b *testing.B) {
	const universe, hotRanks, draws = 1 << 10, 64, 1 << 16
	keys := make([]string, universe)
	for r := range keys {
		keys[r] = "ctr" + strconv.Itoa(r)
	}
	procs := runtime.GOMAXPROCS(0)
	mixed, head := make([][]uint32, procs), make([][]uint32, procs)
	for p := range mixed {
		gen := workload.NewZipfSKeys(uint64(p)+1, universe, 1.2)
		for range draws {
			r := uint32(gen.Rank())
			mixed[p] = append(mixed[p], r)
			if r < hotRanks {
				head[p] = append(head[p], r)
			}
		}
	}
	for _, mode := range []string{"naive", "split"} {
		for _, stream := range []struct {
			name  string
			ranks [][]uint32
		}{{"mixed", mixed}, {"hot-head", head}} {
			b.Run(mode+"/"+stream.name, func(b *testing.B) {
				st := New(newMapKV())
				if mode == "naive" {
					st.promoteAfter = -1
				}
				if mode == "split" {
					for _, k := range keys[:hotRanks] {
						st.Promote(k)
					}
				}
				var next atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					id := next.Add(1) - 1
					ranks := stream.ranks[id%uint64(procs)]
					for i := 0; pb.Next(); i++ {
						if i == len(ranks) {
							i = 0
						}
						if err := st.Incr(keys[ranks[i]], 1, id, nil); err != nil {
							b.Error(err)
							return
						}
					}
				})
				st.ReconcileAll()
			})
		}
	}
}
