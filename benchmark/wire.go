package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"cuckoohash/client"
	"cuckoohash/server"
)

// wireSpec describes one loopback workload: an in-process server.Server
// on TCP loopback driven through client.Conn by one goroutine per
// connection, closed loop (a connection sends its next batch only after
// every reply of the previous one has arrived).
type wireSpec struct {
	shards   int
	slots    uint64 // per shard
	universe int    // distinct keys the op streams draw from
	// prefill is how many keys set-up stores, each once. 0 means the
	// universe is larger than the cache: set-up stores random keys until
	// the cache is full and has evicted a sixteenth of its capacity.
	prefill   int
	setFrac   float64
	zipfTheta float64 // 0 = uniform
	depth     int     // requests per flush
	// warmUp is how long set-up's warm-up lasts (warmUpSeconds outside
	// tests).
	warmUp time.Duration
	// ladderDiv shortens the per-layer ladder where an operation costs
	// tens of microseconds, so the traced run ends in time.
	ladderDiv int
}

// fits reports whether every key of the universe stays resident, so a
// miss is an error of the system and not of the workload.
func (s wireSpec) fits() bool { return s.prefill > 0 }

func (s wireSpec) capacity() uint64 { return uint64(s.shards) * s.slots }

// wireSpecFor returns the named workload at 1/scale of its full size
// (scale 1 outside tests).
func wireSpecFor(name string, scale int) (wireSpec, bool) {
	var s wireSpec
	switch name {
	case wlGetPipelined:
		s = wireSpec{shards: 8, slots: 65536, universe: 200000, prefill: 200000, depth: 16, ladderDiv: 1}
	case wlMixedUnpiped:
		s = wireSpec{shards: 8, slots: 65536, universe: 200000, prefill: 200000,
			setFrac: 0.10, zipfTheta: 0.99, depth: 1, ladderDiv: 1}
	case wlSetEvict:
		// 131072 slots for 524288 keys. As 4 shards of 32768 the cache
		// refuses about 1 SET in 400 ("ERR cache full": eight evict-and-retry
		// rounds found no reachable slot), as 32 of 4096 still 1 in some
		// millions; a benchmark needs a workload on which nothing fails,
		// and a shard of 2048 slots lies within one search's budget.
		s = wireSpec{shards: 64, slots: 2048, universe: 524288, setFrac: 0.50, depth: 16, ladderDiv: 16}
	default:
		return s, false
	}
	s.slots /= uint64(scale)
	s.universe /= scale
	s.prefill /= scale
	s.warmUp = warmUp(scale)
	return s, true
}

// tally counts what a run attempted and what went wrong. Failures are
// counted, never fatal: a run that loses requests still reports, with
// correct=false.
type tally struct {
	attempted, failed uint64
	notes             []string
}

func (t *tally) fail(n uint64, format string, args ...any) {
	t.failed += n
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// wireEnv is one running server with its connections, after set-up.
type wireEnv struct {
	spec    wireSpec
	ks      *keyspace
	srv     *server.Server
	served  chan error
	conns   []*client.Conn
	streams []*opStream
	recs    []*recorder // one per connection, reused by every slice
	// traceIDs holds each connection's wire trace IDs on an armed server,
	// minted in set-up: client.NewTraceID takes a process-wide lock, which
	// is the harness's cost and not the probes'.
	traceIDs [][]string
}

// startWire is the workload's set-up: construct, listen, prefill through
// Server.Cache().Set, wait for shard growth to finish, connect, and warm
// up through the socket. armSpans times every request's
// server-side span (the traced pass) where the default samples 1 in 16.
func startWire(spec wireSpec, ks *keyspace, seed uint64, armSpans bool, tl *tally) (*wireEnv, error) {
	cfg := server.Config{Addr: "127.0.0.1:0", Shards: spec.shards, SlotsPerShard: spec.slots}
	if armSpans {
		// A threshold no request reaches: every span is armed, none is logged.
		cfg.SlowOpThreshold = time.Hour
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	if err := srv.Listen(); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &wireEnv{spec: spec, ks: ks, srv: srv, served: make(chan error, 1)}
	go func() { e.served <- srv.Serve() }()

	prefillCache(srv.Cache(), spec, ks, seed, tl)
	if err := settle(srv.Cache()); err != nil {
		e.close()
		return nil, err
	}
	for i := range benchProcs {
		c, err := client.Dial(srv.Addr().String())
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.conns = append(e.conns, c)
		e.streams = append(e.streams, newOpStream(seed, i, spec.universe, spec.setFrac, spec.zipfTheta))
		e.recs = append(e.recs, newRecorder())
		if armSpans {
			ids := make([]string, traceIDsPerConn)
			for j := range ids {
				ids[j] = client.NewTraceID()
			}
			e.traceIDs = append(e.traceIDs, ids)
		}
	}
	e.warm(tl)
	return e, nil
}

// prefillCache stores the set-up keys in process. Keys and values are
// cloned so the cache owns its bytes, as it does for a SET off the wire.
func prefillCache(c *server.Cache, spec wireSpec, ks *keyspace, seed uint64, tl *tally) {
	set := func(i int) {
		tl.attempted++
		if err := c.Set(strings.Clone(ks.keys[i]), strings.Clone(ks.vals[i]), 0); err != nil {
			tl.fail(1, "prefill %s: %v", ks.keys[i], err)
		}
	}
	if spec.fits() {
		for i := range spec.prefill {
			set(i)
		}
		return
	}
	st := newOpStream(seed, prefillStream, spec.universe, 1, 0)
	for n := uint64(0); n < 16*spec.capacity(); n++ {
		if n%256 == 0 && c.Stats().Evictions() >= evictedAtSteadyState(spec) {
			return
		}
		idx, _ := st.next()
		set(idx)
	}
	tl.fail(1, "prefill: cache never started evicting")
}

// evictedAtSteadyState is how many evictions set-up waits for. The
// resident set is a uniform sample of the universe from the first
// eviction on, so the hit ratio is already the steady one; the wait only
// makes sure every shard is past its first full-table insert.
func evictedAtSteadyState(spec wireSpec) uint64 { return max(spec.capacity()/16, 1) }

// Stream indices: connections use 0..benchProcs-1. The ladder draws from
// the same distribution under an index of its own: replaying a
// connection's stream would find the keys that connection just wrote.
const (
	prefillStream = 1000
	ladderStream  = 2000
)

// cacheStats reads the cache's STATS lines as numbers.
func cacheStats(c *server.Cache) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range c.Snapshot(c.Stats()) {
		if v, err := strconv.ParseFloat(s.Value, 64); err == nil {
			out[s.Name] = v
		}
	}
	return out
}

// settle waits until no shard is mid-resize, so the migration backlog is
// zero when timing starts.
func settle(c *server.Cache) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := cacheStats(c)
		if st["grow_in_progress"] == 0 && st["grow_backlog_buckets"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("set-up: shard growth did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

// warmUpSeconds is the length of every set-up's warm-up, the issue's 3 s.
// A timed warm-up and not a fixed amount of work: a host that has been
// idle runs its first second or two of load at about half speed (README.md,
// "Load and host"), which no count of operations outlasts on every
// workload.
const warmUpSeconds = 3

func warmUp(scale int) time.Duration { return warmUpSeconds * time.Second / time.Duration(scale) }

// warm is set-up's warm-up, untimed. It starts with a verified pass
// through the socket: where the universe fits, it reads every key once
// (pipelined whatever the workload's depth) and every one must hit; where
// it does not, it runs the workload for an eighth of the capacity per
// connection. Then it runs the workload itself until the warm-up's time is
// over.
func (e *wireEnv) warm(tl *tally) {
	deadline := time.Now().Add(e.spec.warmUp)
	var wg sync.WaitGroup
	stats := make([]connStats, len(e.conns))
	for i, c := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := newConnDriver(c, e.ks, warmDepth, e.spec.fits(), &stats[i])
			if e.spec.fits() {
				for lo := i * warmDepth; lo < e.spec.universe; lo += len(e.conns) * warmDepth {
					d.getRange(lo, min(lo+warmDepth, e.spec.universe))
				}
			} else {
				d.runOps(e.streams[i], int(e.spec.capacity()/8))
			}
			d.depth = e.spec.depth
			d.runUntil(e.streams[i], deadline)
		}()
	}
	wg.Wait()
	var sum connStats
	for i := range stats {
		sum.add(&stats[i])
	}
	tl.attempted += sum.attempted
	if sum.failed > 0 {
		tl.fail(sum.failed, "warm pass: %d of %d requests failed (hits %d of %d GETs)",
			sum.failed, sum.attempted, sum.hits, sum.gets)
	}
}

const (
	warmDepth       = 16
	traceIDsPerConn = 1 << 10 // a connection cycles through them, one per batch
)

func (e *wireEnv) close() {
	for _, c := range e.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx) // past the deadline it closes connections hard; either way Serve returns
	<-e.served
}

// connStats is what one connection's driver saw.
type connStats struct {
	_         linePad
	attempted uint64 // requests sent
	ops       uint64 // replies received and verified
	gets      uint64
	hits      uint64
	failed    uint64 // transport errors, ERR replies, wrong values, misses of keys that fit
	rec       *recorder
	_         linePad
}

func (s *connStats) add(o *connStats) {
	s.attempted += o.attempted
	s.ops += o.ops
	s.gets += o.gets
	s.hits += o.hits
	s.failed += o.failed
}

// connDriver sends batches on one connection and checks every reply against
// the key-derived value.
type connDriver struct {
	_     linePad
	c     *client.Conn
	ks    *keyspace
	depth int
	// mustHit: every key is resident, so a miss is the system's failure.
	mustHit bool
	st      *connStats
	idx     []int
	set     []bool
	// Traced slices only: a wire trace ID per batch, a span per flush.
	traceIDs []string
	batches  int
	spans    *flushSpans
	_        linePad
}

func newConnDriver(c *client.Conn, ks *keyspace, depth int, mustHit bool, st *connStats) *connDriver {
	return &connDriver{c: c, ks: ks, depth: depth, mustHit: mustHit, st: st,
		idx: make([]int, 0, depth), set: make([]bool, 0, depth)}
}

func (d *connDriver) queue(idx int, set bool) {
	var err error
	if set {
		err = d.c.QueueSet(d.ks.keys[idx], d.ks.vals[idx], 0)
	} else {
		err = d.c.QueueGet(d.ks.keys[idx])
	}
	d.st.attempted++
	if err != nil {
		d.st.failed++
		return
	}
	d.idx = append(d.idx, idx)
	d.set = append(d.set, set)
}

// flush sends the queued batch, waits for its replies, verifies them and
// returns when the last one arrived. ok is false once the connection is
// broken.
func (d *connDriver) flush() (t1 time.Time, ok bool) {
	t0 := time.Now()
	reps, err := d.c.Flush()
	t1 = time.Now()
	n := len(d.idx)
	if d.spans != nil {
		d.spans.add(t0, t1, n)
	}
	if err != nil || len(reps) != n {
		d.st.failed += uint64(n)
		d.idx, d.set = d.idx[:0], d.set[:0]
		return t1, false
	}
	if d.st.rec != nil {
		d.st.rec.record(int64(t1.Sub(t0)))
	}
	for i, rep := range reps {
		switch {
		case rep.Err != nil:
			d.st.failed++
		case d.set[i]:
			if rep.Found {
				d.st.ops++
			} else {
				d.st.failed++
			}
		default:
			d.st.gets++
			switch {
			case !rep.Found && d.mustHit:
				d.st.failed++
			case !rep.Found:
				d.st.ops++
			case rep.Value == d.ks.vals[d.idx[i]]:
				d.st.ops++
				d.st.hits++
			default:
				d.st.failed++
			}
		}
	}
	d.idx, d.set = d.idx[:0], d.set[:0]
	return t1, true
}

// batch queues one flush worth of the stream; a traced slice stamps it
// with the connection's next wire trace ID.
func (d *connDriver) batch(st *opStream) {
	if d.traceIDs != nil {
		d.c.SetTrace(d.traceIDs[d.batches%len(d.traceIDs)]) // a minted ID is always valid
		d.batches++
	}
	for range d.depth {
		d.queue(st.next())
	}
}

// runUntil drives the stream until the deadline passes.
func (d *connDriver) runUntil(st *opStream, deadline time.Time) {
	for {
		d.batch(st)
		if t1, ok := d.flush(); !ok || !t1.Before(deadline) {
			return
		}
	}
}

// runOps drives about n operations of the stream.
func (d *connDriver) runOps(st *opStream, n int) {
	for done := 0; done < n; done += d.depth {
		d.batch(st)
		if _, ok := d.flush(); !ok {
			return
		}
	}
}

// getRange reads keys [lo, hi) in one flush.
func (d *connDriver) getRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		d.queue(i, false)
	}
	d.flush()
}

// sliceResult is one timed window of the whole workload.
type sliceResult struct {
	wall  time.Duration
	usage usage
	connStats
}

func (r *sliceResult) addTo(tl *tally) {
	tl.attempted += r.attempted
	if r.failed > 0 {
		tl.fail(r.failed, "%d of %d requests failed (hits %d of %d GETs)", r.failed, r.attempted, r.hits, r.gets)
	}
}

// hitRatio is hits ÷ GETs as the clients saw them.
func (r *sliceResult) hitRatio() float64 {
	if r.gets == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.gets)
}

// runSlice drives every connection for d and merges what they saw;
// rec receives the merged round-trip times. spans is nil outside the
// traced slices, where each connection keeps its flush spans to itself
// and the log takes them over once the slice has ended.
func (e *wireEnv) runSlice(d time.Duration, rec *recorder, spans *spanLog) sliceResult {
	stats := make([]connStats, len(e.conns))
	var flushes []flushSpans
	parent := -1
	if spans != nil {
		parent = spans.begin("wire.slice", -1, -1)
		flushes = spans.flushSpans(len(e.conns))
	}
	var wg sync.WaitGroup
	u0 := readUsage()
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, c := range e.conns {
		e.recs[i].reset()
		stats[i].rec = e.recs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			dr := newConnDriver(c, e.ks, e.spec.depth, e.spec.fits(), &stats[i])
			if spans != nil {
				dr.spans, dr.traceIDs = &flushes[i], e.traceIDs[i]
			}
			dr.runUntil(e.streams[i], deadline)
		}()
	}
	wg.Wait()
	res := sliceResult{wall: time.Since(t0), usage: readUsage().sub(u0)}
	for i := range stats {
		res.add(&stats[i])
		rec.merge(stats[i].rec)
	}
	if spans != nil {
		for i := range flushes {
			spans.adopt(parent, i, &flushes[i])
		}
		spans.end(parent, int(res.ops))
	}
	return res
}

// setupRepeats is how often a run sets up; the median is setup_s.
const setupRepeats = 3

// timed runs one slice of length d into s and adds it to total.
func (e *wireEnv) timed(d time.Duration, s *sample, total *sliceResult, spans *spanLog) {
	res := e.runSlice(d, s.rec, spans)
	s.ops, s.wall, s.cpu = res.ops, res.wall, res.usage.cpu()
	total.add(&res.connStats)
	total.wall += res.wall
	total.usage = total.usage.add(res.usage)
}

// runWireE2E is the untraced run: set-up (several times, the median is
// setup_s), then timed slices for `seconds`.
func runWireE2E(spec wireSpec, seed uint64, seconds float64, tl *tally) (metricSet, error) {
	ks := newKeyspace(spec.universe)
	var env *wireEnv
	var setups []float64
	var heapBase uint64
	for r := range setupRepeats {
		if env != nil {
			env.close()
		}
		if r == setupRepeats-1 {
			heapBase, _ = liveHeap()
		}
		t0 := time.Now()
		var err error
		if env, err = startWire(spec, ks, seed, false, tl); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	heap, _ := liveHeap()
	items := env.srv.Cache().Len()

	samples := newSamples(numSlices)
	var total sliceResult
	for i := range samples {
		env.timed(sliceLen(seconds), &samples[i], &total, nil)
	}
	total.addTo(tl)
	m := metricSet{"setup_s": median(setups)}
	medianTiming(samples).set(m)
	m["hit_ratio"] = total.hitRatio()
	if items > 0 && heap > heapBase {
		m["mem_bytes_per_item"] = float64(heap-heapBase) / float64(items)
	}
	return m, nil
}
