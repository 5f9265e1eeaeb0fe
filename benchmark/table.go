package main

import (
	"fmt"
	"sync"
	"time"

	"cuckoohash"
	"cuckoohash/generic"
)

// table-fill-lookup is the paper's own experiment (§6): no socket, no
// server, no client — worker goroutines on the public cuckoohash.Map
// (internal/core, optimistic reads), B = 8, a fixed 2^22 slots (64 MB,
// so most probes miss every cache), no AutoGrow. Set-up fills a fresh
// table from empty to a load factor of 0.95 and reads every key back; the
// timed stream then spends half of every slice on lookups of resident
// keys and half on the 90 % lookup / 10 % upsert mix, at that occupancy.
//
// "rtt" on this workload is what it is at depth 1 on the wire: one
// operation's call-to-return time, taken on one operation in tableBatch
// (timing every one would double a 100 ns lookup with clock reads). It
// includes the two clock reads, and the operation runs without the
// overlap with its neighbours that the untimed ones get, so it is above
// the reciprocal of the throughput.
const (
	tableSlots = 1 << 22
	tableAssoc = 8
	tableLoad  = 0.95
	tableBatch = 256 // operations per timed one
)

// u64Table is what the phases need from either engine.
type u64Table interface {
	Insert(key, val uint64) error
	Upsert(key, val uint64) error
	Lookup(key uint64) (uint64, bool)
	Len() uint64
	Clear()
}

// genericU64 adapts generic.Table, whose read is called Get.
type genericU64 struct {
	*generic.Table[uint64, uint64]
}

func (g genericU64) Lookup(key uint64) (uint64, bool) { return g.Get(key) }

func newCoreTable(slots uint64) (*cuckoohash.Map, error) {
	return cuckoohash.NewMap(cuckoohash.Config{Capacity: slots, Associativity: tableAssoc})
}

func newGenericTable(slots uint64) (genericU64, error) {
	t, err := generic.New[uint64, uint64](generic.Config{
		InitialCapacity: slots, MaxCapacity: slots,
		Associativity: tableAssoc, DisableAutoGrow: true,
	})
	return genericU64{t}, err
}

// tableRun is one table with the keys it holds: tableKey(seed, j) for j
// in [0, items).
type tableRun struct {
	tab   u64Table
	seed  uint64
	items uint64
}

// phaseResult is one timed phase over all workers.
type phaseResult struct {
	wall                time.Duration
	usage               usage
	ops, lookups, hits  uint64
	attempted, failures uint64
}

func (r phaseResult) opsPerS() float64 { return float64(r.ops) / r.wall.Seconds() }

func (r *phaseResult) add(o phaseResult) {
	r.wall += o.wall
	r.usage = r.usage.add(o.usage)
	r.ops += o.ops
	r.lookups += o.lookups
	r.hits += o.hits
	r.attempted += o.attempted
	r.failures += o.failures
}

func (r *phaseResult) addTo(tl *tally) {
	tl.attempted += r.attempted
	if r.failures > 0 {
		tl.fail(r.failures, "%d of %d table operations failed", r.failures, r.attempted)
	}
}

// parallel runs fn on `workers` goroutines and times them together. Each
// worker counts into a result of its own, padded to its own cache lines.
func parallel(workers int, fn func(w int, r *phaseResult)) phaseResult {
	parts := make([]struct {
		_ linePad
		phaseResult
		_ linePad
	}, workers)
	var wg sync.WaitGroup
	u0 := readUsage()
	t0 := time.Now()
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, &parts[w].phaseResult)
		}()
	}
	wg.Wait()
	out := phaseResult{wall: time.Since(t0), usage: readUsage().sub(u0)}
	for i := range parts {
		out.add(parts[i].phaseResult) // a worker leaves wall and usage zero
	}
	return out
}

// fill inserts every key once, worker w taking j = w, w+workers, ...
// Every insert below the target load must succeed.
func (t *tableRun) fill(workers int) phaseResult {
	return parallel(workers, func(w int, r *phaseResult) {
		for j := uint64(w); j < t.items; j += uint64(workers) {
			k := tableKey(t.seed, j)
			r.attempted++
			if err := t.tab.Insert(k, tableVal(k)); err != nil {
				r.failures++
			} else {
				r.ops++
			}
		}
	})
}

// verify looks up every key and checks its value.
func (t *tableRun) verify(workers int) phaseResult {
	return parallel(workers, func(w int, r *phaseResult) {
		for j := uint64(w); j < t.items; j += uint64(workers) {
			k := tableKey(t.seed, j)
			r.attempted++
			r.lookups++
			if v, ok := t.tab.Lookup(k); ok && v == tableVal(k) {
				r.hits++
				r.ops++
			} else {
				r.failures++
			}
		}
	})
}

// tableWorker is one goroutine's generator state. It lives as long as the
// phase, not the slice, so that a phase never draws the same keys twice.
type tableWorker struct {
	st   *opStream // which resident key, and whether to overwrite it
	rec  *recorder
	keys []uint64 // LookupBatch scratch
	vals []uint64
	hit  []bool
}

func (t *tableRun) newWorkers(n int, upsertFrac float64) []*tableWorker {
	ws := make([]*tableWorker, n)
	for w := range ws {
		ws[w] = &tableWorker{
			st:   newOpStream(t.seed, w, int(t.items), upsertFrac, 0),
			rec:  newRecorder(),
			keys: make([]uint64, tableBatch),
			vals: make([]uint64, tableBatch),
			hit:  make([]bool, tableBatch),
		}
	}
	return ws
}

// opsFunc performs n operations for one worker.
type opsFunc func(t *tableRun, w *tableWorker, r *phaseResult, n int)

// mixedOps looks up (and, as often as the worker's mix says, overwrites)
// resident keys drawn uniformly, checking every value.
func mixedOps(t *tableRun, w *tableWorker, r *phaseResult, n int) {
	for range n {
		j, upsert := w.st.next()
		k := tableKey(t.seed, uint64(j))
		r.attempted++
		if upsert {
			if err := t.tab.Upsert(k, tableVal(k)); err != nil {
				r.failures++
			} else {
				r.ops++
			}
			continue
		}
		r.lookups++
		if v, ok := t.tab.Lookup(k); ok && v == tableVal(k) {
			r.hits++
			r.ops++
		} else {
			r.failures++
		}
	}
}

// slice runs ops on every worker until d has passed: one timed operation,
// whose time is the worker's round-trip sample, then the rest of the
// batch untimed.
func (t *tableRun) slice(ws []*tableWorker, d time.Duration, ops opsFunc) phaseResult {
	deadline := time.Now().Add(d)
	return parallel(len(ws), func(w int, r *phaseResult) {
		for {
			t0 := time.Now()
			ops(t, ws[w], r, 1)
			t1 := time.Now()
			ws[w].rec.record(int64(t1.Sub(t0)))
			if !t1.Before(deadline) {
				return
			}
			ops(t, ws[w], r, tableBatch-1)
		}
	})
}

// timed runs one slice of length d and adds it to s and to total.
func (t *tableRun) timed(ws []*tableWorker, d time.Duration, ops opsFunc, s *sample, total *phaseResult) {
	for _, w := range ws {
		w.rec.reset()
	}
	r := t.slice(ws, d, ops)
	for _, w := range ws {
		s.rec.merge(w.rec)
	}
	s.ops += r.ops
	s.wall += r.wall
	s.cpu += r.usage.cpu()
	total.add(r)
}

func tableItems(slots uint64) uint64 { return uint64(float64(slots) * tableLoad) }

// setupTable is the workload's set-up: allocate, fill to 0.95, read every
// key back, and warm up on the timed stream's mix for warm.
func setupTable(slots, seed uint64, warm time.Duration, tl *tally) (*tableRun, *cuckoohash.Map, error) {
	m, err := newCoreTable(slots)
	if err != nil {
		return nil, nil, fmt.Errorf("cuckoohash.NewMap: %w", err)
	}
	t := &tableRun{tab: m, seed: seed, items: tableItems(slots)}
	f := t.fill(benchProcs)
	f.addTo(tl)
	v := t.verify(benchProcs)
	v.addTo(tl)
	if m.Len() != t.items {
		tl.fail(1, "set-up: table holds %d keys, want %d", m.Len(), t.items)
	}
	for _, upsertFrac := range []float64{0, 0.10} {
		w := t.slice(t.newWorkers(benchProcs, upsertFrac), warm/2, mixedOps)
		w.addTo(tl)
	}
	return t, m, nil
}

// timedStream is the workload's timed part on a table at 0.95. A slice is
// half lookups and half the 90/10 mix, so that every slice is the same
// stream; the halves are also returned on their own.
func (t *tableRun) timedStream(seconds float64, tl *tally) (stream, lookup, mixed timing, total phaseResult) {
	look, mix := t.newWorkers(benchProcs, 0), t.newWorkers(benchProcs, 0.10)
	both, lookHalf, mixHalf := newSamples(numSlices), newSamples(numSlices), newSamples(numSlices)
	half := sliceLen(seconds) / 2
	for i := range both {
		t.timed(look, half, mixedOps, &lookHalf[i], &total)
		t.timed(mix, half, mixedOps, &mixHalf[i], &total)
		for _, h := range []sample{lookHalf[i], mixHalf[i]} {
			both[i].ops += h.ops
			both[i].wall += h.wall
			both[i].cpu += h.cpu
			both[i].rec.merge(h.rec)
		}
	}
	total.addTo(tl)
	return medianTiming(both), medianTiming(lookHalf), medianTiming(mixHalf), total
}

// runTableE2E is the untraced run of table-fill-lookup.
func runTableE2E(seed uint64, seconds float64, scale int, tl *tally) (metricSet, error) {
	slots := uint64(tableSlots / scale)
	var t *tableRun
	var m *cuckoohash.Map
	var setups []float64
	var heapBase uint64
	for r := range setupRepeats {
		t, m = nil, nil
		if r == setupRepeats-1 {
			heapBase, _ = liveHeap()
		}
		t0 := time.Now()
		var err error
		if t, m, err = setupTable(slots, seed, warmUp(scale), tl); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	heap, _ := liveHeap()

	stream, _, _, total := t.timedStream(seconds, tl)
	ms := metricSet{"setup_s": median(setups)}
	stream.set(ms)
	if total.lookups > 0 {
		ms["hit_ratio"] = float64(total.hits) / float64(total.lookups)
	}
	if heap > heapBase {
		ms["mem_bytes_per_item"] = float64(heap-heapBase) / float64(t.items)
	}
	tl.notes = append(tl.notes, fmt.Sprintf("Map.MemoryFootprint says %.4g B per item",
		float64(m.MemoryFootprint())/float64(t.items)))
	return ms, nil
}

// runTableLayers is the traced run of table-fill-lookup: the timed stream
// as the untraced run measures it, then both engines through the same
// phases, at one and at benchProcs workers.
func runTableLayers(seed uint64, seconds float64, scale int, spans *spanLog, tl *tally) (metricSet, error) {
	slots := uint64(tableSlots / scale)
	ms := metricSet{}
	root := spans.begin("table.layers", -1, -1)
	fill := func(name string, t *tableRun, workers int) phaseResult {
		id := spans.begin(name, root, -1)
		r := t.fill(workers)
		spans.end(id, int(r.ops))
		r.addTo(tl)
		return r
	}
	// phase runs a quarter as long as the timed stream does and returns
	// its median rate over its slices, in Mop/s.
	phase := func(name string, t *tableRun, workers int, upsertFrac float64, ops opsFunc) (float64, phaseResult) {
		id := spans.begin(name, root, -1)
		ws := t.newWorkers(workers, upsertFrac)
		samples := newSamples(numSlices / 2)
		var total phaseResult
		for i := range samples {
			t.timed(ws, sliceLen(seconds)/4, ops, &samples[i], &total)
		}
		spans.end(id, int(total.ops))
		total.addTo(tl)
		return medianTiming(samples).opsPerS / 1e6, total
	}

	t, m, err := setupTable(slots, seed, warmUp(scale), tl)
	if err != nil {
		return nil, err
	}
	id := spans.begin("core.stream", root, -1)
	stream, lookup, mixed, total := t.timedStream(seconds, tl)
	spans.end(id, int(total.ops))
	stream.set(ms)
	ms["lookup_mops"] = lookup.opsPerS / 1e6
	ms["mixed_mops"] = mixed.opsPerS / 1e6
	look1, _ := phase("core.lookup.1", t, 1, 0, mixedOps)
	ms["core.scaling_lookup"] = ms["lookup_mops"] / look1
	ms["core.lookup_batch_mops"], _ = phase("core.LookupBatch", t, benchProcs, 0,
		func(t *tableRun, w *tableWorker, r *phaseResult, n int) { lookupBatch(m, t, w, r, n) })

	// The first fill of a fresh table (set-up's) also pays its page
	// faults; the timed fills run on touched memory.
	m.Clear()
	fill1 := fill("core.fill.1", t, 1)
	m.Clear()
	s0 := m.Stats()
	fillN := fill("core.fill", t, benchProcs)
	s1 := m.Stats()
	ms["fill_mops"] = fillN.opsPerS() / 1e6
	ms["core.scaling_fill"] = fillN.opsPerS() / fill1.opsPerS()
	inserts := float64(fillN.ops)
	ms["core.displacements_per_insert"] = float64(s1.Displacements-s0.Displacements) / inserts
	ms["core.path_restarts_per_kinsert"] = 1000 * float64(s1.PathRestarts-s0.PathRestarts) / inserts
	ms["core.max_path_len"] = float64(s1.MaxPathLen)
	var paths, pathSum uint64
	for i := range s1.PathLenHist {
		n := s1.PathLenHist[i] - s0.PathLenHist[i]
		paths += n
		pathSum += uint64(i) * n
	}
	if paths > 0 {
		ms["core.path_len_mean"] = float64(pathSum) / float64(paths)
	}
	v := t.verify(benchProcs) // the timed fill's keys, every one
	v.addTo(tl)

	t, m = nil, nil
	liveHeap() // return the core table before allocating the generic one
	g, err := newGenericTable(slots)
	if err != nil {
		return nil, fmt.Errorf("generic.New: %w", err)
	}
	gt := &tableRun{tab: g, seed: seed, items: tableItems(slots)}
	fill("generic.fill.cold", gt, benchProcs)
	g.Clear()
	ms["generic.u64_fill_mops"] = fill("generic.fill", gt, benchProcs).opsPerS() / 1e6
	gLook, _ := phase("generic.lookup", gt, benchProcs, 0, mixedOps)
	ms["generic.u64_lookup_mops"] = gLook
	ms["generic.vs_core_lookup_ratio"] = gLook / ms["lookup_mops"]
	l0 := g.LockStats()
	gMixed, gTotal := phase("generic.mixed", gt, benchProcs, 0.10, mixedOps)
	l1 := g.LockStats()
	ms["generic.u64_mixed_mops"] = gMixed
	if acq := l1.Acquisitions - l0.Acquisitions; acq > 0 {
		ms["spinlock.contended_ratio"] = float64(l1.Contended-l0.Contended) / float64(acq)
	}
	ms["spinlock.yields_per_kop"] = 1000 * float64(l1.Yields-l0.Yields) / float64(gTotal.ops)
	spans.end(root, 0)
	return ms, nil
}

// lookupBatch reads n resident keys through Map.LookupBatch, the prefetch
// window of §4.3.2 applied to reads.
func lookupBatch(m *cuckoohash.Map, t *tableRun, w *tableWorker, r *phaseResult, n int) {
	keys := w.keys[:n]
	for i := range keys {
		j, _ := w.st.next()
		keys[i] = tableKey(t.seed, uint64(j))
	}
	m.LookupBatch(keys, w.vals[:n], w.hit[:n])
	for i, k := range keys {
		r.attempted++
		if w.hit[i] && w.vals[i] == tableVal(k) {
			r.ops++
		} else {
			r.failures++
		}
	}
}
