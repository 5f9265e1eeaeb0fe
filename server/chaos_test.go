package server

// Deterministic chaos suite: the daemon serves real traffic through a
// seeded faultinject.Plan while hardened clients (retries + backoff +
// health-checked pool) run a write/read workload. The acceptance
// properties, per docs/ROBUSTNESS.md:
//
//   - durability: no acknowledged SET is ever lost, even when resets and
//     partial writes kill connections mid-pipeline;
//   - bounded degradation: with ~5% fault probability per I/O, the
//     client-visible failure rate stays far below the raw fault rate
//     because retries absorb transient faults;
//   - availability: accept-path faults degrade accept latency (backoff)
//     but never kill the accept loop;
//   - recovery: a faulted daemon drains, snapshots, and a restarted
//     daemon serves every acknowledged key.
//
// Faults are injected with fixed seeds, so a failure here reproduces
// exactly under `make chaos`.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"cuckoohash/client"
	"cuckoohash/internal/faultinject"
)

// chaosScale shrinks the workload under -short (tier-1) and runs it full
// size under `make chaos`.
func chaosScale(short, full int, t *testing.T) int {
	if testing.Short() {
		return short
	}
	_ = t
	return full
}

// chaosPlan is the ~5% fault mix the acceptance criteria describe: every
// conn I/O rolls small probabilities of added latency, a partial write
// followed by a reset, or an immediate reset.
func chaosPlan(seed uint64) *faultinject.Plan {
	p := faultinject.New(seed)
	p.Latency = time.Millisecond
	p.LatencyProb = 0.05
	p.PartialProb = 0.02
	p.ResetProb = 0.03
	return p
}

func startChaosServer(t *testing.T, plan *faultinject.Plan, snapshot string) *Server {
	t.Helper()
	s, err := New(Config{
		Addr:          "127.0.0.1:0",
		Shards:        8,
		SlotsPerShard: 1 << 12,
		SweepInterval: -1,
		FaultPlan:     plan,
		SnapshotPath:  snapshot,
		IOTimeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-serveErr; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return s
}

func chaosPool(addr string, seed uint64) *client.Pool {
	return client.NewPoolWith(addr, client.Options{
		Size:           4,
		DialTimeout:    2 * time.Second,
		IOTimeout:      2 * time.Second,
		MaxRetries:     4,
		RetrySets:      true, // SET here is idempotent: unique key, fixed value
		BackoffBase:    time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		RetryBudgetMax: 1000, // durability test: bound comes from MaxRetries
		Seed:           seed,
	})
}

// TestChaosNoAcknowledgedWriteLost runs concurrent writers through the
// fault plan, then disarms it and audits: every SET the client saw "OK"
// for must be readable, and the end-to-end failure rate must stay well
// under the injected fault rate.
func TestChaosNoAcknowledgedWriteLost(t *testing.T) {
	plan := chaosPlan(0xC0FFEE)
	s := startChaosServer(t, plan, "")

	workers := 4
	perWorker := chaosScale(100, 400, t)
	type acked struct{ key, val string }
	ackedCh := make(chan acked, workers*perWorker)
	var failed, total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := chaosPool(s.Addr().String(), uint64(w+1))
			defer p.Close()
			var myFailed int64
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				val := fmt.Sprintf("v%d-%d", w, i)
				if err := p.Set(key, val, 0); err != nil {
					myFailed++
					continue
				}
				ackedCh <- acked{key, val}
			}
			mu.Lock()
			failed += myFailed
			total += int64(perWorker)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(ackedCh)

	if plan.Fired() == 0 {
		t.Fatal("fault plan never fired; the chaos test tested nothing")
	}
	t.Logf("faults: rolls=%d fired=%d; ops=%d failed=%d",
		plan.Rolls(), plan.Fired(), total, failed)

	// Bounded degradation: raw fault probability is ~5% per I/O; four
	// retries push the per-op failure probability orders of magnitude
	// lower. 2% leaves slack for fault clustering while still proving
	// retries absorb faults.
	if maxFailed := total / 50; failed > maxFailed {
		t.Errorf("failed ops = %d / %d, want <= %d: retries are not absorbing faults",
			failed, total, maxFailed)
	}

	// Durability audit on a clean transport: disarm faults first.
	plan.Disarm()
	p := client.NewPool(s.Addr().String(), 2)
	defer p.Close()
	audited := 0
	for a := range ackedCh {
		v, ok, err := p.Get1(a.key)
		if err != nil {
			t.Fatalf("audit GET %s: %v", a.key, err)
		}
		if !ok || v != a.val {
			t.Fatalf("acknowledged SET lost: %s = %q, %v (want %q)", a.key, v, ok, a.val)
		}
		audited++
	}
	if audited == 0 {
		t.Fatal("no acknowledged writes to audit")
	}
	t.Logf("audited %d acknowledged writes, none lost", audited)
}

// TestChaosGrowUnderLoad drives a zipf(s=1.2) workload plus a stream of
// unique inserts through the ~5% fault plan against deliberately small
// shards, so every shard's table grows at least twice *while* serving
// traffic. The incremental-resize acceptance properties
// (docs/ROBUSTNESS.md):
//
//   - liveness: a grow never stalls the request loop — every op during a
//     grow either succeeds or fails like any other faulted op;
//   - durability: no acknowledged SET is lost across the grows (writes
//     land in the live generation, reads consult old generations);
//   - bounded latency: a grow shows up as the two-bucket drain each table
//     write pays while it is in flight, not a stop-the-world rebuild, so
//     the client-visible p99 stays small;
//   - completion: once load stops, the table's own background sweeper,
//     which the grow started, drains every old generation to a zero
//     backlog.
func TestChaosGrowUnderLoad(t *testing.T) {
	plan := chaosPlan(0x6120F)
	s, err := New(Config{
		Addr:   "127.0.0.1:0",
		Shards: 4,
		// Small cap: each shard starts at 512/8 = 64 slots and must grow
		// 64 -> 128 -> 256 (-> 512 at full scale) to hold the workload,
		// which stays far enough under the 2048-slot maximum that the
		// evictor never fires and durability is entirely on the
		// resize machinery.
		SlotsPerShard: 512,
		SweepInterval: -1,
		FaultPlan:     plan,
		IOTimeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-serveErr; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})

	const hotRanks = 256 // zipf keyspace; hot values are key-deterministic
	workers := 4
	perWorker := chaosScale(140, 280, t)
	type acked struct{ key, val string }
	ackedCh := make(chan acked, workers*perWorker*2)
	latCh := make(chan []time.Duration, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := chaosPool(s.Addr().String(), uint64(w+21))
			defer p.Close()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			zipf := rand.NewZipf(rng, 1.2, 1, hotRanks-1)
			lats := make([]time.Duration, 0, perWorker*2)
			for i := 0; i < perWorker; i++ {
				// Unique filler insert: this is what fills the shards past
				// their current capacity and forces the grows.
				key := fmt.Sprintf("g%d-%d", w, i)
				val := fmt.Sprintf("gv%d-%d", w, i)
				t0 := time.Now()
				err := p.Set(key, val, 0)
				lats = append(lats, time.Since(t0))
				if err == nil {
					ackedCh <- acked{key, val}
				}
				// Hot zipf op: SETs write the rank-deterministic value, so
				// concurrent writers to one hot key always agree and the
				// audit below has a single correct answer per key.
				rank := zipf.Uint64()
				hk := fmt.Sprintf("hot%d", rank)
				t0 = time.Now()
				if i%2 == 0 {
					hv := fmt.Sprintf("hv%d", rank)
					err := p.Set(hk, hv, 0)
					lats = append(lats, time.Since(t0))
					if err == nil {
						ackedCh <- acked{hk, hv}
					}
				} else {
					_, _, _ = p.Get1(hk)
					lats = append(lats, time.Since(t0))
				}
			}
			latCh <- lats
		}(w)
	}
	wg.Wait()
	close(ackedCh)
	close(latCh)

	if plan.Fired() == 0 {
		t.Fatal("fault plan never fired; the chaos test tested nothing")
	}

	// Every shard must have resized at least twice under load — otherwise
	// the test exercised a static table and proved nothing about grows.
	tab := s.cache.tableTotals().tab
	for i, sh := range s.cache.shards {
		if g := sh.table.Stats().Grows; g < 2 {
			t.Errorf("shard %d grew %d times, want >= 2 (workload did not exercise incremental resize)", i, g)
		}
	}
	t.Logf("faults fired=%d; grows=%d migrated_buckets=%d evictions=%d",
		plan.Fired(), tab.Grows, tab.MigratedBuckets, s.cache.stats.Evictions())

	// Completion: with load stopped, the background sweeper (plus the last
	// per-op batches) must drain every old generation.
	waitUntil(t, 10*time.Second, func() bool {
		return s.cache.growingShards() == 0
	})
	if tab := s.cache.tableTotals().tab; tab.MigrationBacklog != 0 {
		t.Errorf("migration backlog = %d buckets after drain, want 0", tab.MigrationBacklog)
	}
	if tab.MigratedBuckets == 0 {
		t.Error("MigratedBuckets = 0: grows happened but nothing was migrated incrementally")
	}

	// Bounded latency: the old path rebuilt a whole shard inside one SET;
	// the incremental path bounds each op to a constant migration batch.
	// 500ms is orders of magnitude above a healthy op (even with injected
	// faults and retry backoff) and orders below nothing-else-runs rebuild
	// stalls compounding under -race.
	var all []time.Duration
	for lats := range latCh {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	t.Logf("ops=%d p50=%v p99=%v max=%v", len(all), all[len(all)/2], p99, all[len(all)-1])
	if p99 > 500*time.Millisecond {
		t.Errorf("p99 op latency = %v under grow, want <= 500ms", p99)
	}

	// Durability audit on a clean transport: every acknowledged SET —
	// filler or hot — must be present with its (key-deterministic) value.
	plan.Disarm()
	p := client.NewPool(s.Addr().String(), 2)
	defer p.Close()
	want := make(map[string]string)
	for a := range ackedCh {
		want[a.key] = a.val
	}
	if len(want) == 0 {
		t.Fatal("no acknowledged writes to audit")
	}
	for key, val := range want {
		v, ok, err := p.Get1(key)
		if err != nil {
			t.Fatalf("audit GET %s: %v", key, err)
		}
		if !ok || v != val {
			t.Fatalf("acknowledged SET lost across grow: %s = %q, %v (want %q)", key, v, ok, val)
		}
	}
	t.Logf("audited %d acknowledged keys across %d grows, none lost", len(want), tab.Grows)
}

// TestChaosAcceptFaultsDoNotKillServe: with a high accept-fault rate the
// accept loop must keep retrying (counted, backed off) and clients must
// still get connected and served.
func TestChaosAcceptFaultsDoNotKillServe(t *testing.T) {
	plan := faultinject.New(0xACCE97)
	plan.AcceptProb = 0.3
	s := startChaosServer(t, plan, "")

	ops := chaosScale(50, 200, t)
	p := chaosPool(s.Addr().String(), 42)
	defer p.Close()
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := p.Set(key, "v", 0); err != nil {
			t.Fatalf("SET %s under accept faults: %v", key, err)
		}
	}
	waitUntil(t, 5*time.Second, func() bool {
		return s.cache.stats.acceptRetries.Load() > 0
	})
	t.Logf("accept retries: %d", s.cache.stats.acceptRetries.Load())
}

// TestChaosRestartRestoresAcknowledgedWrites: writes land through faults,
// the daemon drains and snapshots, and a fresh daemon on the same
// snapshot path serves every acknowledged key — the kill→restart
// acceptance path, with chaos on the way in.
func TestChaosRestartRestoresAcknowledgedWrites(t *testing.T) {
	snap := t.TempDir() + "/chaos.snap"
	plan := chaosPlan(0xDEAD)
	s1 := startChaosServer(t, plan, snap)

	ops := chaosScale(100, 400, t)
	p := chaosPool(s1.Addr().String(), 7)
	acked := make(map[string]string, ops)
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", i)
		val := fmt.Sprintf("v%d", i)
		if err := p.Set(key, val, 0); err != nil {
			continue // unacknowledged: no durability obligation
		}
		acked[key] = val
	}
	p.Close()
	if len(acked) == 0 {
		t.Fatal("no writes acknowledged")
	}

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := startChaosServer(t, nil, snap)
	p2 := client.NewPool(s2.Addr().String(), 2)
	defer p2.Close()
	for key, val := range acked {
		v, ok, err := p2.Get1(key)
		if err != nil {
			t.Fatalf("after restart GET %s: %v", key, err)
		}
		if !ok || v != val {
			t.Fatalf("acknowledged SET lost across restart: %s = %q, %v (want %q)",
				key, v, ok, val)
		}
	}
	t.Logf("restart preserved all %d acknowledged writes", len(acked))
}

// TestChaosCounterExactness hammers a small hot keyset with INCRs through
// the fault plan. INCR is not idempotent, so the client never retries it
// (docs/TRANSACTIONS.md); each attempt therefore applies at most once, and
// each acknowledged attempt applied exactly once. Per key the stored value
// must satisfy
//
//	acked_k <= value_k <= attempts_k
//
// — below the lower bound an acknowledged INCR was lost, above the upper
// bound one was double-applied. The bound is then re-checked after a
// drain + snapshot + restart: the shutdown path must fold every pending
// split-counter delta into the table before the snapshot is cut.
func TestChaosCounterExactness(t *testing.T) {
	const hotKeys = 4
	snap := t.TempDir() + "/counters.snap"
	plan := chaosPlan(0xC047E8)
	s1 := startChaosServer(t, plan, snap)

	workers := 4
	perWorker := chaosScale(150, 600, t)
	acked := make([]int64, hotKeys)
	attempts := make([]int64, hotKeys)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := chaosPool(s1.Addr().String(), uint64(w+11))
			defer p.Close()
			myAcked := make([]int64, hotKeys)
			myAttempts := make([]int64, hotKeys)
			for i := 0; i < perWorker; i++ {
				k := i % hotKeys
				myAttempts[k]++
				if err := p.Incr(fmt.Sprintf("ctr%d", k), 1); err == nil {
					myAcked[k]++
				}
			}
			mu.Lock()
			for k := 0; k < hotKeys; k++ {
				acked[k] += myAcked[k]
				attempts[k] += myAttempts[k]
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if plan.Fired() == 0 {
		t.Fatal("fault plan never fired; the chaos test tested nothing")
	}
	var totalAcked, totalAttempts int64
	for k := 0; k < hotKeys; k++ {
		totalAcked += acked[k]
		totalAttempts += attempts[k]
	}
	if totalAcked == 0 {
		t.Fatal("no INCR acknowledged")
	}
	t.Logf("faults fired=%d; INCRs acked=%d / attempted=%d",
		plan.Fired(), totalAcked, totalAttempts)

	// Exactness audit on a clean transport, before and after restart.
	plan.Disarm()
	audit := func(s *Server, when string) []int64 {
		t.Helper()
		p := client.NewPool(s.Addr().String(), 2)
		defer p.Close()
		vals := make([]int64, hotKeys)
		for k := 0; k < hotKeys; k++ {
			key := fmt.Sprintf("ctr%d", k)
			v, ok, err := p.Get1(key)
			if err != nil {
				t.Fatalf("%s audit GET %s: %v", when, key, err)
			}
			if ok {
				n, perr := strconv.ParseInt(v, 10, 64)
				if perr != nil {
					t.Fatalf("%s audit: %s holds non-integer %q", when, key, v)
				}
				vals[k] = n
			}
			if vals[k] < acked[k] || vals[k] > attempts[k] {
				t.Fatalf("%s audit: %s = %d, want %d <= value <= %d (acked INCR lost or double-applied)",
					when, key, vals[k], acked[k], attempts[k])
			}
		}
		return vals
	}
	before := audit(s1, "pre-restart")

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := startChaosServer(t, nil, snap)
	after := audit(s2, "post-restart")
	for k := 0; k < hotKeys; k++ {
		if after[k] != before[k] {
			t.Fatalf("ctr%d changed across snapshot restart: %d -> %d",
				k, before[k], after[k])
		}
	}
	t.Logf("counter exactness held across %d keys and a snapshot restart", hotKeys)
}
