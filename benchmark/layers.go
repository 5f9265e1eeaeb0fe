package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cuckoohash/client"
	"cuckoohash/generic"
	"cuckoohash/internal/obs"
	"cuckoohash/server"
)

// runWireLayers is the traced run of a wire workload. It measures layers
// from outside, three ways:
//
//   - counters: public counters (STATS, /metrics, getrusage, MemStats)
//     read before and after each untraced slice of the full workload,
//     which are the slices the untraced run measures;
//   - traced slices: the full workload against a second server with every
//     span armed and a wire trace ID on every batch, read back through
//     Server.Collect. They alternate with the untraced slices, so that the
//     two rates whose ratio is the probes' price see the same minutes of
//     the host;
//   - ladder: one more op stream of the workload (same seed, same mix)
//     replayed single-goroutine through successive public entry points,
//     each rung the median of ladderPasses passes.
func runWireLayers(spec wireSpec, seed uint64, seconds float64, scale int, spans *spanLog, tl *tally) (metricSet, error) {
	m := metricSet{}
	ks := newKeyspace(spec.universe)

	_, inuseBase := liveHeap()
	env, err := startWire(spec, ks, seed, false, tl)
	if err != nil {
		return nil, err
	}
	defer env.close()
	_, inuse := liveHeap()
	if items := env.srv.Cache().Len(); items > 0 && inuse > inuseBase {
		m["proc.heap_inuse_bytes_per_item"] = float64(inuse-inuseBase) / float64(items)
	}
	envT, err := startWire(spec, ks, seed, true, tl)
	if err != nil {
		return nil, err
	}
	defer envT.close()

	cache := env.srv.Cache()
	st0, prom0, promT0 := cacheStats(cache), promValues(env.srv), promValues(envT.srv)
	plainSlices, tracedSlices := newSamples(numSlices), newSamples(numSlices)
	var plain, traced sliceResult
	var mem, ms0, ms1 runtime.MemStats // mem sums the deltas over the untraced slices
	for i := range numSlices {
		runtime.ReadMemStats(&ms0)
		env.timed(sliceLen(seconds), &plainSlices[i], &plain, nil)
		runtime.ReadMemStats(&ms1)
		mem.Mallocs += ms1.Mallocs - ms0.Mallocs
		mem.TotalAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		mem.NumGC += ms1.NumGC - ms0.NumGC
		mem.PauseTotalNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		envT.timed(sliceLen(seconds), &tracedSlices[i], &traced, spans)
	}
	st1, prom1, promT1 := cacheStats(cache), promValues(env.srv), promValues(envT.srv)
	plain.addTo(tl)
	traced.addTo(tl)
	if plain.ops == 0 {
		return nil, errors.New("the untraced slices completed no requests")
	}
	ops := float64(plain.ops)
	delta := func(name string) float64 { return st1[name] - st0[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	plainTiming := medianTiming(plainSlices)
	plainTiming.set(m)
	m["generic.displacements_per_insert"] = ratio(delta("table_displacements"), delta("sets"))
	m["generic.path_restarts_per_kinsert"] = ratio(1000*delta("table_path_restarts"), delta("sets"))
	m["generic.path_len_mean"] = ratio(
		prom1["cuckoo_table_path_length_sum"]-prom0["cuckoo_table_path_length_sum"],
		prom1["cuckoo_table_path_length_count"]-prom0["cuckoo_table_path_length_count"])
	m["generic.max_path_len"] = st1["table_max_path_len"]
	m["generic.grows"] = delta("table_grows")
	m["generic.migration_backlog_end"] = st1["grow_backlog_buckets"]
	m["spinlock.contended_ratio"] = ratio(delta("lock_contended"), delta("lock_acquisitions"))
	m["spinlock.yields_per_kop"] = 1000 * delta("lock_yields") / ops
	// Over the slices' totals and not their median, so that the ladder
	// closes exactly: user + sys = cpu_ns_per_op.
	m["cpu_ns_per_op"] = float64(plain.usage.cpu()) / ops
	m["proc.user_ns_per_req"] = float64(plain.usage.user) / ops
	m["kernel.sys_ns_per_req"] = float64(plain.usage.sys) / ops
	m["kernel.vcsw_per_req"] = float64(plain.usage.vcsw) / ops
	m["proc.allocs_per_req"] = float64(mem.Mallocs) / ops
	m["proc.alloc_bytes_per_req"] = float64(mem.TotalAlloc) / ops
	m["proc.gc_cycles"] = float64(mem.NumGC)
	m["proc.gc_pause_ms"] = float64(mem.PauseTotalNs) / 1e6
	m["rtt_p999_us"] = plainTiming.rtt.quantile(0.999) / 1e3 // over every round trip: a slice has too few beyond it
	m["rtt_samples"] = float64(plainTiming.rtt.total())
	m["trace.overhead_share"] = 1 - medianTiming(tracedSlices).opsPerS/plainTiming.opsPerS
	stageShares(promT0, promT1, m)

	lad := newLadder(spec, ks, seed, scale, spans)
	if err := lad.wireRungs(env.srv.Addr().String(), m); err != nil {
		return nil, err
	}
	if err := lad.inProcessRungs(m, tl); err != nil {
		return nil, err
	}
	spans.end(lad.root, len(lad.idx))
	// The "other" of the ladder: what the process spends in user space per
	// request that no rung accounts for — parse, dispatch, reply
	// formatting, bufio copies, goroutine hand-off. With kernel.sys it
	// closes the sum: gen + cache + codec + resid + sys = cpu_ns_per_op.
	m["server.conn_resid_ns_per_req"] = m["proc.user_ns_per_req"] - m["workload.gen_ns_per_op"] -
		lad.cacheMixNs(m) - m["client.codec_ns_per_req"]
	return m, nil
}

// promValues scrapes the server's /metrics series through the same
// registry cuckood serves them with, as "name{labels}" → value.
func promValues(srv *server.Server) map[string]float64 {
	reg := obs.NewRegistry()
	reg.Register(srv)
	var buf bytes.Buffer
	reg.WriteText(&buf) // a bytes.Buffer does not fail
	out := make(map[string]float64)
	for line := range strings.Lines(buf.String()) {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// stageShares turns the server's per-stage span sums over the traced pass
// into shares of its service time. The span attributes what no stage
// claimed to "other", so coverage is one minus that; the reported other
// also absorbs the stages this benchmark never exercises (txn_retry,
// migrate, repl, lease), so the eight shares sum to 1.
func stageShares(before, after map[string]float64, m metricSet) {
	const prefix = `cuckood_stage_seconds_sum{stage="`
	byStage := map[string]float64{}
	var total float64
	for series, v := range after {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		stage, _, _ := strings.Cut(rest, `"`)
		d := v - before[series]
		byStage[stage] += d
		total += d
	}
	if total <= 0 {
		return
	}
	m["trace.stage_coverage"] = 1 - byStage["other"]/total
	named := 0.0
	for _, stage := range []string{"read", "parse", "dispatch", "lock", "probe", "evict", "flush"} {
		share := byStage[stage] / total
		m["trace.stage_share."+stage] = share
		named += share
	}
	m["trace.stage_share.other"] = 1 - named
}

// Ladder sizes: operations per in-process pass, flushes per wire pass
// (both divided by the workload's ladderDiv).
const (
	ladderOps     = 200000
	ladderFlushes = 12500
	ladderPasses  = 5
)

// ladderEntry has the size of a server shard entry (value, expiry,
// version), so the generic rung moves the bytes the cache rung moves.
type ladderEntry struct {
	val      string
	expireAt int64
	ver      uint64
}

// ladder replays one materialised op stream through each layer. Pass p of
// a rung replays the stream's p-th segment, never the same operations
// twice: a second replay of one segment would find every key it wrote
// resident, and the evicting workload would measure overwrites.
type ladder struct {
	spec  wireSpec
	ks    *keyspace
	seed  uint64
	spans *spanLog
	root  int
	n     int     // operations per in-process segment
	nWire int     // operations per wire segment
	idx   []int32 // the materialised stream
	set   []bool
}

func newLadder(spec wireSpec, ks *keyspace, seed uint64, scale int, spans *spanLog) *ladder {
	scale *= spec.ladderDiv
	n := max(ladderOps/scale, spec.depth)
	l := &ladder{spec: spec, ks: ks, seed: seed, spans: spans,
		root: spans.begin("ladder", -1, -1),
		n:    n, nWire: max(ladderFlushes/scale, 1) * spec.depth}
	// Enough for the in-process rungs' passes plus the counted pass, and
	// for the two wire rungs' passes.
	total := max((ladderPasses+1)*l.n, 2*ladderPasses*l.nWire)
	l.idx, l.set = make([]int32, total), make([]bool, total)
	st := newOpStream(seed, ladderStream, spec.universe, spec.setFrac, spec.zipfTheta)
	for i := range l.idx {
		k, s := st.next()
		l.idx[i], l.set[i] = int32(k), s
	}
	return l
}

// sets counts the SETs among operations [lo, hi).
func (l *ladder) sets(lo, hi int) int {
	n := 0
	for _, s := range l.set[lo:hi] {
		if s {
			n++
		}
	}
	return n
}

// pass performs the operations [lo, hi) of the materialised stream that
// are its rung's, and reports how many those were.
type pass func(lo, hi int) int

// rungs times each pass over ladderPasses successive segments of size n
// and returns, per rung, the median nanoseconds per operation; a rung that
// performs no operation reads 0. The rungs take turns segment by segment,
// so that two rungs whose difference is reported (cache − generic,
// client.Conn − raw socket) see the same seconds of the host.
func (l *ladder) rungs(n int, names []string, passes []pass) []float64 {
	per := make([][]float64, len(passes))
	for p := range ladderPasses {
		for r, pass := range passes {
			id := l.spans.begin(names[r], l.root, -1)
			t0 := time.Now()
			ops := pass(p*n, (p+1)*n)
			d := time.Since(t0)
			l.spans.end(id, ops)
			if ops > 0 {
				per[r] = append(per[r], float64(d)/float64(ops))
			}
		}
	}
	out := make([]float64, len(passes))
	for r := range per {
		out[r] = median(per[r])
	}
	return out
}

// cacheMixNs is the cache rung weighted by the stream's GET/SET mix.
func (l *ladder) cacheMixNs(m metricSet) float64 {
	n := float64(ladderPasses * l.n)
	nSet := float64(l.sets(0, ladderPasses*l.n))
	return ((n-nSet)*m["cache.get_ns_per_op"] + nSet*m["cache.set_ns_per_op"]) / n
}

var sink int // keeps results the rungs would otherwise discard alive

// inProcessRungs measures the generator, generic and cache rungs.
func (l *ladder) inProcessRungs(m metricSet, tl *tally) error {
	gen := newOpStream(l.seed, ladderStream, l.spec.universe, l.spec.setFrac, l.spec.zipfTheta)
	m["workload.gen_ns_per_op"] = l.rungs(l.n, []string{"workload.gen"}, []pass{func(lo, hi int) int {
		for range hi - lo {
			k, _ := gen.next()
			sink += len(l.ks.keys[k])
		}
		return hi - lo
	}})[0]

	tab, err := generic.New[string, ladderEntry](generic.Config{
		InitialCapacity: l.spec.capacity(), MaxCapacity: l.spec.capacity()})
	if err != nil {
		return fmt.Errorf("generic.New: %w", err)
	}
	gt := &fifoTable{tab: tab, ks: l.ks}
	if l.spec.fits() {
		for i := range l.spec.prefill {
			gt.upsert(i, tl)
		}
	} else {
		st := newOpStream(l.seed, prefillStream, l.spec.universe, 1, 0)
		for n := uint64(0); n < 16*l.spec.capacity() && gt.deleted < evictedAtSteadyState(l.spec); n++ {
			k, _ := st.next()
			gt.upsert(k, tl)
		}
	}
	genericGet := func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			if !l.set[i] {
				if _, ok := generic.GetBytes(tab, l.ks.keyBytes[l.idx[i]]); ok {
					sink++
				}
			}
		}
		return hi - lo - l.sets(lo, hi)
	}
	genericUpsert := func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			if l.set[i] {
				gt.upsert(int(l.idx[i]), tl)
			}
		}
		return l.sets(lo, hi)
	}

	cache, err := server.NewCache(l.spec.shards, l.spec.slots)
	if err != nil {
		return fmt.Errorf("server.NewCache: %w", err)
	}
	prefillCache(cache, l.spec, l.ks, l.seed, tl)
	if err := settle(cache); err != nil {
		return err
	}
	cacheSet := func(i int) {
		k := l.idx[i]
		tl.attempted++
		if err := cache.Set(l.ks.keys[k], l.ks.vals[k], 0); err != nil {
			tl.fail(1, "ladder Cache.Set: %v", err)
		}
	}
	cacheGet := func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			if !l.set[i] {
				if _, ok := cache.GetBytesTraced(l.ks.keyBytes[l.idx[i]], nil); ok {
					sink++
				}
			}
		}
		return hi - lo - l.sets(lo, hi)
	}
	cacheSets := func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			if l.set[i] {
				cacheSet(i)
			}
		}
		return l.sets(lo, hi)
	}
	// Every GET pass runs before the first SET pass, on either table.
	gets := l.rungs(l.n, []string{"generic.GetBytes", "Cache.GetBytesTraced"}, []pass{genericGet, cacheGet})
	sets := l.rungs(l.n, []string{"generic.Upsert", "Cache.Set"}, []pass{genericUpsert, cacheSets})
	m["generic.get_ns_per_op"], m["cache.get_ns_per_op"] = gets[0], gets[1]
	m["generic.upsert_ns_per_op"], m["cache.set_ns_per_op"] = sets[0], sets[1]
	m["cache.wrap_get_ns_per_op"] = m["cache.get_ns_per_op"] - m["generic.get_ns_per_op"]
	m["cache.wrap_set_ns_per_op"] = m["cache.set_ns_per_op"] - m["generic.upsert_ns_per_op"]

	// The last segment, interleaved as the stream has it, counted and not
	// timed: the hit ratio and eviction rate with no concurrency in the
	// way.
	cs := cache.Stats()
	hits0, miss0, ev0 := cs.Hits(), cs.Misses(), cs.Evictions()
	lo, hi := ladderPasses*l.n, (ladderPasses+1)*l.n
	for i := lo; i < hi; i++ {
		k := l.idx[i]
		if l.set[i] {
			cacheSet(i)
		} else if v, ok := cache.GetBytesTraced(l.ks.keyBytes[k], nil); ok && v != l.ks.vals[k] {
			tl.fail(1, "ladder Cache.Get %s: wrong value", l.ks.keys[k])
		}
	}
	hits, misses := cs.Hits()-hits0, cs.Misses()-miss0
	if hits+misses > 0 {
		m["cache.hit_ratio_inproc"] = float64(hits) / float64(hits+misses)
	}
	if nSet := l.sets(lo, hi); nSet > 0 {
		m["cache.evictions_per_kset"] = 1000 * float64(cs.Evictions()-ev0) / float64(nSet)
	}
	return nil
}

// fifoTable is the generic rung's table. A bare generic.Table refuses an
// insert when it is full; to replay a stream larger than the table the
// rung deletes the oldest key it wrote and retries, which are the table
// calls the cache's eviction ring makes, without the ring.
type fifoTable struct {
	tab  *generic.Table[string, ladderEntry]
	ks   *keyspace
	fifo []int32
	head int
	// deleted counts keys removed to make room.
	deleted uint64
}

func (f *fifoTable) upsert(k int, tl *tally) {
	tl.attempted++
	e := ladderEntry{val: f.ks.vals[k]}
	for tries := 0; ; tries++ {
		err := f.tab.Upsert(f.ks.keys[k], e)
		if err == nil {
			f.fifo = append(f.fifo, int32(k))
			return
		}
		if !errors.Is(err, generic.ErrFull) || tries == 64 || f.head == len(f.fifo) {
			tl.fail(1, "ladder generic.Upsert %s: %v", f.ks.keys[k], err)
			return
		}
		for n := 0; n <= tries && f.head < len(f.fifo); f.head++ {
			if f.tab.Delete(f.ks.keys[f.fifo[f.head]]) {
				n++
				f.deleted++
			}
		}
		if f.head > 1<<20 {
			f.fifo = append(f.fifo[:0], f.fifo[f.head:]...)
			f.head = 0
		}
	}
}

// wireRungs measures the two socket rungs against the running server on
// one connection: pre-encoded bytes straight to a net.Conn, then the same
// kind of requests through client.Conn. Their difference is the client
// codec.
func (l *ladder) wireRungs(addr string, m metricSet) error {
	depth := l.spec.depth
	// The raw rung takes the first ladderPasses wire segments, the
	// client.Conn rung the ones after them.
	encode := func(lo, hi int) [][]byte {
		var batches [][]byte
		for ; lo < hi; lo += depth {
			var b []byte
			for i := lo; i < lo+depth; i++ {
				k := l.idx[i]
				if l.set[i] {
					b = append(append(append(append(b, "SET "...), l.ks.keys[k]...), ' '), l.ks.vals[k]...)
				} else {
					b = append(append(b, "GET "...), l.ks.keys[k]...)
				}
				b = append(b, '\n')
			}
			batches = append(batches, b)
		}
		return batches
	}
	batches := encode(0, ladderPasses*l.nWire)
	perPass := l.nWire / depth

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("ladder dial: %w", err)
	}
	defer nc.Close()
	r := bufio.NewReaderSize(nc, 64<<10)
	c, err := client.Dial(addr)
	if err != nil {
		return fmt.Errorf("ladder dial: %w", err)
	}
	defer c.Close()
	var rawErr, connErr error
	raw := func(lo, hi int) int {
		for _, b := range batches[lo/depth : lo/depth+perPass] {
			if _, err := nc.Write(b); err != nil {
				rawErr = err
				return 0
			}
			for range depth {
				if _, err := r.ReadSlice('\n'); err != nil {
					rawErr = err
					return 0
				}
			}
		}
		return hi - lo
	}
	base := ladderPasses * l.nWire
	conn := func(lo, hi int) int {
		for lo, hi = lo+base, hi+base; lo < hi; lo += depth {
			for i := lo; i < lo+depth; i++ {
				k := l.idx[i]
				var err error
				if l.set[i] {
					err = c.QueueSet(l.ks.keys[k], l.ks.vals[k], 0)
				} else {
					err = c.QueueGet(l.ks.keys[k])
				}
				if err != nil {
					connErr = err
					return 0
				}
			}
			if _, err := c.Flush(); err != nil {
				connErr = err
				return 0
			}
		}
		return l.nWire
	}
	ns := l.rungs(l.nWire, []string{"wire.raw", "client.Conn"}, []pass{raw, conn})
	if rawErr != nil {
		return fmt.Errorf("ladder wire.raw: %w", rawErr)
	}
	if connErr != nil {
		return fmt.Errorf("ladder client.Conn: %w", connErr)
	}
	m["wire.raw_ns_per_req"], m["client.conn_ns_per_req"] = ns[0], ns[1]
	m["client.codec_ns_per_req"] = m["client.conn_ns_per_req"] - m["wire.raw_ns_per_req"]
	return nil
}
