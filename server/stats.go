package server

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"cuckoohash/generic"
	"cuckoohash/internal/metrics"
	"cuckoohash/internal/obs"
	"cuckoohash/internal/replica"
	"cuckoohash/internal/spinlock"
)

// latencySampleMask samples one request latency out of every 16 per
// connection: enough resolution for STATS quantiles without putting two
// clock reads on every request's fast path.
const latencySampleMask = 0xf

// latencyShards sizes the sharded latency histogram. Each connection
// records into its own shard (assigned round-robin at accept time), so
// sampled requests on different connections never touch a shared cache
// line — previously every 16th request across *all* connections serialized
// on one global mutex. A shard is allocated by its first sample: 640 B per
// connection up to the 64th.
const latencyShards = 64

// stats aggregates the daemon's counters. Operation counters are kept
// per shard, all of a shard's on one padded line pair (opCounts), so two
// connections hammering different shards never bounce a statistics cache
// line between cores — the service-layer form of the paper's principle
// P1, "never share a counter between threads".
type stats struct {
	ops []opCounts // one per cache shard, indexed by shard

	connsActive atomic.Int64
	connsTotal  atomic.Uint64

	slowOps atomic.Uint64             // requests over the slow-op threshold
	sweeps  atomic.Uint64             // completed TTL sweep passes
	lat     *metrics.ShardedHistogram // sampled request latencies (ns)

	// cuckootrace state (docs/OBSERVABILITY.md): per-{verb,stage} latency
	// attribution from sampled spans, the hot-key top-K sketches (one per
	// connection-shard group so the sampled path stays uncontended), and
	// exemplar trace IDs from recent slow requests.
	stages     *obs.StageTable
	hot        [hotSketches]*obs.TopK
	slowTraces *obs.SlowTraces

	// Robustness counters (docs/ROBUSTNESS.md): how often each overload
	// and fault-recovery mechanism engaged.
	acceptRetries atomic.Uint64 // temporary accept errors retried with backoff
	connsShed     atomic.Uint64 // connections refused at accept (MaxConns)
	busyRejected  atomic.Uint64 // requests fast-failed with ERR busy (MaxInflight)
	idleClosed    atomic.Uint64 // connections closed by the idle timeout
	ioTimeouts    atomic.Uint64 // connections closed by a write deadline
	snapSaves     atomic.Uint64 // snapshots written on drain
	snapLoads     atomic.Uint64 // snapshots restored at startup
	snapSaveNs    atomic.Uint64 // duration of the last snapshot save
	snapLoadNs    atomic.Uint64 // duration of the last snapshot load

	// Cluster counters (docs/CLUSTER.md): two-choice migration traffic
	// through the MIGRATE/HANDOFF verbs.
	migratedIn     atomic.Uint64 // keys applied from inbound handoffs
	migratedOut    atomic.Uint64 // keys moved to a peer and removed here
	handoffs       atomic.Uint64 // inbound bulk transfers applied
	handoffRejects atomic.Uint64 // inbound transfers rejected (bad payload)
	migrateFails   atomic.Uint64 // outbound transfers that failed

	// Replication counters (docs/REPLICATION.md): the two-choice mirror
	// stream, outbound (enqueue → batch send / catch-up) and inbound
	// (REPLSET/REPLDEL application).
	replEnqueued  atomic.Uint64 // mutations enqueued onto peer mirror logs
	replMirrored  atomic.Uint64 // entries acknowledged by a peer
	replBatches   atomic.Uint64 // pipelined mirror batches sent
	replSendFails atomic.Uint64 // mirror sends/dials that failed
	replCatchups  atomic.Uint64 // bulk catch-up handoffs completed
	replApplied   atomic.Uint64 // inbound replica writes applied
	replStale     atomic.Uint64 // inbound replica writes dropped as stale
	replLagNs     atomic.Uint64 // age of the oldest queued mutation at last drain

	// Lease counters: the miss-lease anti-herd protocol (LEASE/SETL).
	leaseGrants      atomic.Uint64 // fill tokens granted
	leaseWaits       atomic.Uint64 // clients told to wait for a fill in flight
	leaseStaleServes atomic.Uint64 // expired copies served while a fill runs
	leaseFills       atomic.Uint64 // SETL fills accepted
	leaseRejects     atomic.Uint64 // SETL fills rejected (token stale/invalid)
}

// hotSketches is how many independent top-K sketches traffic spreads
// across (indexed by connection shard); HOTKEYS folds them on read.
// Power of two so the index is a mask. A sketch's map is made by its
// first Touch, so the sketches no connection reaches stay empty.
const hotSketches = 8

// hotSketchK is each sketch's tracked-key budget. 48 per sketch leaves
// plenty of slack over the 10-key answer HOTKEYS defaults to, which is
// what keeps space-saving's error bound far below the head of a zipf
// distribution.
const hotSketchK = 48

// opStat names one of a shard's operation counters.
type opStat uint8

const (
	statGets opStat = iota
	statHits
	statMisses
	statSets
	statDels
	statIncrs     // INCR/DECR/ADD/MAXUPDATE applied
	statCAS       // CAS attempts (conflicts are Cache.casConflicts)
	statExpired   // entries removed because their TTL passed
	statEvictions // entries evicted to make room
	numOpStats
)

// opCounts is one cache shard's operation counters. They share their lines
// because the requests that bump them are already the shard's — a GET bumps
// gets and hits on one line, not two — and a line pair per counter would
// keep no two writers further apart for nine times the memory.
type opCounts struct {
	n [numOpStats]atomic.Uint64
	_ [128 - 8*numOpStats]byte // two cache lines, as metrics' padded counters
}

// count books one operation of kind k against shard si.
func (st *stats) count(si int, k opStat) { st.ops[si].n[k].Add(1) }

// total sums counter k over the shards: exact when no writer is active, a
// momentary view otherwise.
func (st *stats) total(k opStat) uint64 {
	var n uint64
	for i := range st.ops {
		n += st.ops[i].n[k].Load()
	}
	return n
}

func newStats(shards int) *stats {
	st := &stats{
		ops:        make([]opCounts, shards),
		lat:        metrics.NewShardedHistogram(latencyShards),
		stages:     obs.NewStageTable(stageVerbs, 4),
		slowTraces: &obs.SlowTraces{},
	}
	for i := range st.hot {
		st.hot[i] = obs.NewTopK(hotSketchK)
	}
	return st
}

// touchHot counts one sampled request against the hot-key sketches.
func (st *stats) touchHot(shard uint64, key []byte) {
	st.hot[shard&(hotSketches-1)].Touch(key)
}

// HotKeys folds the per-shard sketches and returns the top n.
func (st *stats) HotKeys(n int) []obs.TopKItem {
	items := obs.MergeTopK(st.hot[:])
	if len(items) > n {
		items = items[:n]
	}
	return items
}

// recordLatency merges one sampled request latency into the connection's
// histogram shard, lock-free.
func (st *stats) recordLatency(shard uint64, ns uint64) {
	st.lat.Record(shard, ns)
}

// Hits returns the cumulative GET hit count.
func (st *stats) Hits() uint64 { return st.total(statHits) }

// Misses returns the cumulative GET miss count.
func (st *stats) Misses() uint64 { return st.total(statMisses) }

// Evictions returns the number of entries evicted to make room.
func (st *stats) Evictions() uint64 { return st.total(statEvictions) }

// Expired returns the number of entries removed because their TTL passed.
func (st *stats) Expired() uint64 { return st.total(statExpired) }

// Stat is one name/value line of the STATS response.
type Stat struct {
	Name  string
	Value string
}

// tableTotals is the per-shard cuckoo tables' internal probe counters and
// stripe-lock statistics, aggregated.
type tableTotals struct {
	tab  generic.Stats
	lock spinlock.StripeStats
}

// tableTotals aggregates across shards: MaxPathLen takes the max,
// everything else sums.
func (c *Cache) tableTotals() tableTotals {
	var tt tableTotals
	tab, lock := &tt.tab, &tt.lock
	for _, s := range c.shards {
		ts := s.table.Stats()
		tab.Searches += ts.Searches
		tab.Displacements += ts.Displacements
		tab.PathRestarts += ts.PathRestarts
		tab.Grows += ts.Grows
		tab.MigratedBuckets += ts.MigratedBuckets
		tab.MigrationBacklog += ts.MigrationBacklog
		if ts.MaxPathLen > tab.MaxPathLen {
			tab.MaxPathLen = ts.MaxPathLen
		}
		for i, n := range ts.PathLenHist {
			tab.PathLenHist[i] += n
		}
		ls := s.table.LockStats()
		lock.Acquisitions += ls.Acquisitions
		lock.Contended += ls.Contended
		lock.Yields += ls.Yields
	}
	return tt
}

// replLogTotals aggregates the peer mirror logs: buffered depth and
// entries dropped to overflow. Both are zero when replication is off.
func (c *Cache) replLogTotals() replica.LogStats {
	var tot replica.LogStats
	if r := c.repl; r != nil {
		for _, p := range r.peers {
			if p != nil {
				s := p.log.Stats()
				tot.Depth += s.Depth
				tot.Dropped += s.Dropped
			}
		}
	}
	return tot
}

// growingShards counts shards with an incremental resize in flight.
func (c *Cache) growingShards() int {
	n := 0
	for _, s := range c.shards {
		if s.table.Growing() {
			n++
		}
	}
	return n
}

// once caches one aggregate for the life of a reading.
type once[T any] struct{ v *T }

func (o *once[T]) get(read func() T) *T {
	if o.v == nil {
		v := read()
		o.v = &v
	}
	return o.v
}

// reading is one pass over the counter table: the cache being read, and
// the aggregates several rows share, each computed at most once and only
// if a row asks for it — CLUSTER's rows ask for none, so an overloaded
// node answers CLUSTER from a handful of atomic loads.
type reading struct {
	c    *Cache
	st   *stats
	lat  once[metrics.Histogram]
	tab  once[tableTotals]
	repl once[replica.LogStats]
}

func (r *reading) latency() *metrics.Histogram { return r.lat.get(r.st.lat.Snapshot) }
func (r *reading) table() *tableTotals         { return r.tab.get(r.c.tableTotals) }
func (r *reading) replLog() *replica.LogStats  { return r.repl.get(r.c.replLogTotals) }

// slot places a counter row in the /metrics exposition, whose family
// order is not the STATS line order the table is written in: Collect
// emits the slots in this order, a slot's rows in table order, and after
// some slots the series that are code rather than rows.
type slot uint8

const (
	atOps         slot = iota // request, expiry and sweep counters
	atConns                   // connections
	atRobust                  // overload and fault recovery (docs/ROBUSTNESS.md)
	atCluster                 // MIGRATE/HANDOFF traffic (docs/CLUSTER.md)
	atSize                    // then: per-shard entries, the request-latency histogram
	atTable                   // cuckoo-path searches (the paper's Eq. 1 and Eq. 2 signals)
	atTableMax                // the longest path: before table_grows in STATS, after it here
	atGrow                    // incremental resize; then: the path-length histogram
	atLock                    // stripe locks
	atTxn                     // then: the cuckootrace series
	atRepl                    // the outbound mirror stream (docs/REPLICATION.md)
	atReplDropped             // its overflow drops: after the inbound pair in STATS, before it here
	atReplIn                  // inbound application, queue depth and lag
	atLease                   // the miss-lease protocol
	numSlots
)

// counter is one row of the counter table: a number cuckood reports, and
// every name it is reported under.
type counter struct {
	stat    string // STATS line name; "" = not a STATS line
	cluster string // CLUSTER line name; "" = not a CLUSTER line
	// prom is the /metrics family and help its text; a row with a label
	// but no family is one more sample of the family of the row above. A
	// row with neither is not exported.
	prom, help string
	kind       obs.Kind // counter unless said otherwise
	label      []string // one /metrics label pair, or none
	at         slot
	// unit is how many of the STATS line's units make one of the /metrics
	// family's (1e9: nanoseconds there, seconds here); 0 = the same unit.
	unit float64
	// digits is how many decimals the STATS and CLUSTER rendering keeps:
	// 0 for counts, more for the ratios.
	digits int
	read   func(r *reading) float64
}

// ratio is num/den, and 0 while den is.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counters is the counter table, in STATS line order: the one place a
// counter's STATS, CLUSTER and /metrics names, help text, kind and unit
// are declared. Cache.Snapshot (STATS, expvar), Server.clusterInfo
// (CLUSTER) and Server.Collect (/metrics) all walk it; the hot path never
// does — it increments the typed stats fields the read closures name.
var counters = []counter{
	{stat: "entries", cluster: "entries", prom: "cuckood_entries", help: "Stored entries across all shards.", kind: obs.KindGauge, at: atSize, read: func(r *reading) float64 { return float64(r.c.Len()) }},
	{stat: "capacity", cluster: "capacity", prom: "cuckood_capacity_slots", help: "Total slot capacity across all shards.", kind: obs.KindGauge, at: atSize, read: func(r *reading) float64 { return float64(r.c.Cap()) }},
	{cluster: "load", digits: 6, read: func(r *reading) float64 { return ratio(r.c.Len(), r.c.Cap()) }},
	{stat: "shards", read: func(r *reading) float64 { return float64(len(r.c.shards)) }},
	{stat: "gets", prom: "cuckood_gets_total", help: "GET requests served.", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statGets)) }},
	{stat: "hits", prom: "cuckood_hits_total", help: "GET requests that found a live entry.", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statHits)) }},
	{stat: "misses", prom: "cuckood_misses_total", help: "GET requests that missed.", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statMisses)) }},
	{stat: "hit_ratio", digits: 4, read: func(r *reading) float64 { return ratio(r.st.total(statHits), r.st.total(statGets)) }},
	{stat: "sets", prom: "cuckood_sets_total", help: "SET/SETEX requests stored.", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statSets)) }},
	{stat: "dels", prom: "cuckood_dels_total", help: "DEL requests served.", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statDels)) }},
	{stat: "incrs", prom: "cuckood_incrs_total", help: "INCR/DECR/ADD/MAXUPDATE requests applied.", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statIncrs)) }},
	{stat: "cas_ops", prom: "cuckood_cas_total", help: "CAS requests attempted (conflicts are cuckood_txn_cas_conflicts_total).", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statCAS)) }},
	{stat: "expired", prom: "cuckood_expired_total", help: "Entries removed because their TTL passed.", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statExpired)) }},
	{stat: "evictions", prom: "cuckood_evictions_total", help: "Entries evicted to make room on a full shard.", at: atOps, read: func(r *reading) float64 { return float64(r.st.total(statEvictions)) }},
	{stat: "conns_active", prom: "cuckood_connections_active", help: "Currently open client connections.", kind: obs.KindGauge, at: atConns, read: func(r *reading) float64 { return float64(r.st.connsActive.Load()) }},
	{stat: "conns_total", prom: "cuckood_connections_total", help: "Client connections accepted since start.", at: atConns, read: func(r *reading) float64 { return float64(r.st.connsTotal.Load()) }},
	{stat: "lat_samples", read: func(r *reading) float64 { return float64(r.latency().Count()) }},
	{stat: "lat_mean_ns", read: func(r *reading) float64 { return r.latency().Mean() }},
	{stat: "lat_p50_ns", read: func(r *reading) float64 { return float64(r.latency().Quantile(0.50)) }},
	{stat: "lat_p99_ns", read: func(r *reading) float64 { return float64(r.latency().Quantile(0.99)) }},
	{stat: "lat_p999_ns", read: func(r *reading) float64 { return float64(r.latency().Quantile(0.999)) }},
	{stat: "slow_ops", prom: "cuckood_slow_requests_total", help: "Requests at or over the slow-op threshold.", at: atOps, read: func(r *reading) float64 { return float64(r.st.slowOps.Load()) }},
	{stat: "hot_keys_tracked", read: func(r *reading) float64 { return float64(len(r.st.HotKeys(hotSketches * hotSketchK))) }},
	{stat: "sweeps", prom: "cuckood_ttl_sweeps_total", help: "Completed TTL sweeper passes.", at: atOps, read: func(r *reading) float64 { return float64(r.st.sweeps.Load()) }},
	{stat: "accept_retries", prom: "cuckood_accept_retries_total", help: "Temporary accept errors retried with backoff.", at: atRobust, read: func(r *reading) float64 { return float64(r.st.acceptRetries.Load()) }},
	{stat: "conns_shed", prom: "cuckood_connections_shed_total", help: "Connections refused at accept because of -max-conns.", at: atRobust, read: func(r *reading) float64 { return float64(r.st.connsShed.Load()) }},
	{stat: "busy_rejected", prom: "cuckood_busy_rejections_total", help: "Requests fast-failed with ERR busy because of -max-inflight.", at: atRobust, read: func(r *reading) float64 { return float64(r.st.busyRejected.Load()) }},
	{stat: "idle_closed", prom: "cuckood_idle_closes_total", help: "Connections closed by the idle timeout.", at: atRobust, read: func(r *reading) float64 { return float64(r.st.idleClosed.Load()) }},
	{stat: "io_timeouts", prom: "cuckood_io_timeouts_total", help: "Connections closed because a response flush timed out.", at: atRobust, read: func(r *reading) float64 { return float64(r.st.ioTimeouts.Load()) }},
	{stat: "snapshot_saves", prom: "cuckood_snapshot_saves_total", help: "Cache snapshots written on drain.", at: atRobust, read: func(r *reading) float64 { return float64(r.st.snapSaves.Load()) }},
	{stat: "snapshot_loads", prom: "cuckood_snapshot_loads_total", help: "Cache snapshots restored at startup.", at: atRobust, read: func(r *reading) float64 { return float64(r.st.snapLoads.Load()) }},
	{stat: "snapshot_last_save_ns", prom: "cuckood_snapshot_last_save_seconds", help: "Duration of the most recent snapshot save.", kind: obs.KindGauge, at: atRobust, unit: 1e9, read: func(r *reading) float64 { return float64(r.st.snapSaveNs.Load()) }},
	{stat: "snapshot_last_load_ns", prom: "cuckood_snapshot_last_load_seconds", help: "Duration of the most recent snapshot load.", kind: obs.KindGauge, at: atRobust, unit: 1e9, read: func(r *reading) float64 { return float64(r.st.snapLoadNs.Load()) }},
	{stat: "cluster_migrated_in", cluster: "migrated_in", prom: "cuckood_cluster_migrated_keys_total", help: "Keys moved between nodes by MIGRATE/HANDOFF, by direction.", label: []string{"direction", "in"}, at: atCluster, read: func(r *reading) float64 { return float64(r.st.migratedIn.Load()) }},
	{stat: "cluster_migrated_out", cluster: "migrated_out", label: []string{"direction", "out"}, at: atCluster, read: func(r *reading) float64 { return float64(r.st.migratedOut.Load()) }},
	{stat: "cluster_handoffs", cluster: "handoffs", prom: "cuckood_cluster_handoffs_total", help: "Inbound bulk key transfers applied.", at: atCluster, read: func(r *reading) float64 { return float64(r.st.handoffs.Load()) }},
	{stat: "cluster_handoff_rejects", prom: "cuckood_cluster_handoff_rejects_total", help: "Inbound bulk key transfers rejected as invalid.", at: atCluster, read: func(r *reading) float64 { return float64(r.st.handoffRejects.Load()) }},
	{stat: "cluster_migrate_failures", cluster: "migrate_failures", prom: "cuckood_cluster_migrate_failures_total", help: "Outbound migrations that failed before any key was removed.", at: atCluster, read: func(r *reading) float64 { return float64(r.st.migrateFails.Load()) }},
	{stat: "repl_enqueued", prom: "cuckood_repl_enqueued_total", help: "Writes enqueued for mirroring to the alternate node.", at: atRepl, read: func(r *reading) float64 { return float64(r.st.replEnqueued.Load()) }},
	{stat: "repl_mirrored", prom: "cuckood_repl_mirrored_total", help: "Mirror log entries delivered to the alternate node.", at: atRepl, read: func(r *reading) float64 { return float64(r.st.replMirrored.Load()) }},
	{stat: "repl_batches", prom: "cuckood_repl_batches_total", help: "Mirror batches flushed to the alternate node.", at: atRepl, read: func(r *reading) float64 { return float64(r.st.replBatches.Load()) }},
	{stat: "repl_send_failures", prom: "cuckood_repl_send_failures_total", help: "Mirror sends that failed and latched a bulk catch-up.", at: atRepl, read: func(r *reading) float64 { return float64(r.st.replSendFails.Load()) }},
	{stat: "repl_catchups", prom: "cuckood_repl_catchups_total", help: "Snapshot-format bulk catch-ups shipped after overflow or send failure.", at: atRepl, read: func(r *reading) float64 { return float64(r.st.replCatchups.Load()) }},
	{stat: "repl_applied", prom: "cuckood_repl_applied_total", help: "Inbound replicated writes applied, by result.", label: []string{"result", "applied"}, at: atReplIn, read: func(r *reading) float64 { return float64(r.st.replApplied.Load()) }},
	{stat: "repl_stale_rejected", label: []string{"result", "stale_dropped"}, at: atReplIn, read: func(r *reading) float64 { return float64(r.st.replStale.Load()) }},
	{stat: "repl_dropped", prom: "cuckood_repl_dropped_total", help: "Mirror log entries overwritten by drop-oldest overflow (repaired by catch-up).", at: atReplDropped, read: func(r *reading) float64 { return float64(r.replLog().Dropped) }},
	{stat: "repl_queue_depth", prom: "cuckood_repl_queue_depth", help: "Mutations buffered in the mirror logs awaiting delivery.", kind: obs.KindGauge, at: atReplIn, read: func(r *reading) float64 { return float64(r.replLog().Depth) }},
	{stat: "repl_lag_ns", prom: "cuckood_repl_lag_seconds", help: "Age of the oldest undelivered mirror entry at the last flush (0 when drained).", kind: obs.KindGauge, at: atReplIn, unit: 1e9, read: func(r *reading) float64 { return float64(r.st.replLagNs.Load()) }},
	{stat: "lease_grants", prom: "cuckood_lease_grants_total", help: "Fill leases granted to the first client missing a key.", at: atLease, read: func(r *reading) float64 { return float64(r.st.leaseGrants.Load()) }},
	{stat: "lease_waits", prom: "cuckood_lease_waits_total", help: "LEASE requests told to wait for an in-flight fill.", at: atLease, read: func(r *reading) float64 { return float64(r.st.leaseWaits.Load()) }},
	{stat: "lease_stale_serves", prom: "cuckood_lease_stale_serves_total", help: "LEASE requests served an expired copy while a fill was in flight.", at: atLease, read: func(r *reading) float64 { return float64(r.st.leaseStaleServes.Load()) }},
	{stat: "lease_fills", prom: "cuckood_lease_fills_total", help: "SETL fills accepted from lease winners.", at: atLease, read: func(r *reading) float64 { return float64(r.st.leaseFills.Load()) }},
	{stat: "lease_rejects", prom: "cuckood_lease_rejects_total", help: "SETL fills rejected because the lease was invalidated or expired.", at: atLease, read: func(r *reading) float64 { return float64(r.st.leaseRejects.Load()) }},
	{prom: "cuckood_lease_active", help: "Outstanding fill leases.", kind: obs.KindGauge, at: atLease, read: func(r *reading) float64 { return float64(r.c.leases.Active()) }},
	{stat: "txn_commits", prom: "cuckood_txn_commits_total", help: "EXEC transactions committed.", at: atTxn, read: func(r *reading) float64 { return float64(r.c.commits.Load()) }},
	{stat: "txn_cas_conflicts", prom: "cuckood_txn_cas_conflicts_total", help: "CAS operations rejected because the current value differed.", at: atTxn, read: func(r *reading) float64 { return float64(r.c.casConflicts.Load()) }},
	{stat: "txn_split_ops", prom: "cuckood_txn_split_ops_total", help: "Commutative updates absorbed by per-shard split counters instead of the key's stripe.", at: atTxn, read: func(r *reading) float64 { return float64(r.c.split.splitOps.Load()) }},
	{stat: "txn_split_reconciles", prom: "cuckood_txn_split_reconciles_total", help: "Hot-key delta reconciliations folded into the table.", at: atTxn, read: func(r *reading) float64 { return float64(r.c.split.reconciles.Load()) }},
	{stat: "txn_split_promotions", prom: "cuckood_txn_split_promotions_total", help: "Keys promoted to split-counter mode after stripe contention.", at: atTxn, read: func(r *reading) float64 { return float64(r.c.split.promotions.Load()) }},
	{stat: "txn_split_demotions", prom: "cuckood_txn_split_demotions_total", help: "Hot keys demoted back to the direct path after going idle.", at: atTxn, read: func(r *reading) float64 { return float64(r.c.split.demotions.Load()) }},
	{stat: "txn_hot_keys", prom: "cuckood_txn_hot_keys", help: "Keys currently in split-counter mode.", kind: obs.KindGauge, at: atTxn, read: func(r *reading) float64 { return float64(r.c.split.hotCount.Load()) }},
	{stat: "table_searches", prom: "cuckoo_table_searches_total", help: "BFS cuckoo-path searches (slow-path inserts).", at: atTable, read: func(r *reading) float64 { return float64(r.table().tab.Searches) }},
	{stat: "table_displacements", prom: "cuckoo_table_displacements_total", help: "Item moves along cuckoo paths.", at: atTable, read: func(r *reading) float64 { return float64(r.table().tab.Displacements) }},
	{stat: "table_path_restarts", prom: "cuckoo_table_path_restarts_total", help: "Inserts restarted because a concurrent writer invalidated the path (Eq. 1).", at: atTable, read: func(r *reading) float64 { return float64(r.table().tab.PathRestarts) }},
	{stat: "table_max_path_len", prom: "cuckoo_table_max_path_length", help: "Longest discovered cuckoo path, in displacements.", kind: obs.KindGauge, at: atTableMax, read: func(r *reading) float64 { return float64(r.table().tab.MaxPathLen) }},
	{stat: "table_grows", prom: "cuckoo_table_grows_total", help: "Automatic table expansions started (each drains incrementally).", at: atTable, read: func(r *reading) float64 { return float64(r.table().tab.Grows) }},
	{stat: "grow_migrated_buckets", prom: "cuckood_grow_migrated_buckets_total", help: "Old-generation buckets drained by the incremental-resize migrator.", at: atGrow, read: func(r *reading) float64 { return float64(r.table().tab.MigratedBuckets) }},
	{stat: "grow_backlog_buckets", prom: "cuckood_grow_backlog_buckets", help: "Old-generation buckets still awaiting migration across all shards.", kind: obs.KindGauge, at: atGrow, read: func(r *reading) float64 { return float64(r.table().tab.MigrationBacklog) }},
	{stat: "grow_in_progress", prom: "cuckood_grow_in_progress", help: "Shards with an incremental resize in flight.", kind: obs.KindGauge, at: atGrow, read: func(r *reading) float64 { return float64(r.c.growingShards()) }},
	{stat: "lock_acquisitions", prom: "cuckoo_lock_acquisitions_total", help: "Stripe-lock acquisitions across all shards.", at: atLock, read: func(r *reading) float64 { return float64(r.table().lock.Acquisitions) }},
	{stat: "lock_contended", prom: "cuckoo_lock_contended_total", help: "Stripe-lock acquisitions that found the lock held.", at: atLock, read: func(r *reading) float64 { return float64(r.table().lock.Contended) }},
	{stat: "lock_yields", prom: "cuckoo_lock_yields_total", help: "Scheduler yields while spinning on a stripe lock.", at: atLock, read: func(r *reading) float64 { return float64(r.table().lock.Yields) }},
}

// render reads every row that nameOf names and formats it as a Stat.
func (r *reading) render(nameOf func(*counter) string) []Stat {
	out := make([]Stat, 0, len(counters))
	for i := range counters {
		row := &counters[i]
		if name := nameOf(row); name != "" {
			out = append(out, Stat{name, strconv.FormatFloat(row.read(r), 'f', row.digits, 64)})
		}
	}
	return out
}

// Snapshot renders every counter, the hit ratio, the sampled latency
// quantiles, and the cuckoo tables' internal probe counters as STATS
// lines, then each shard's entry count. It is called off the hot path,
// so the lazy aggregation of the per-shard counters happens here, not per
// request.
func (c *Cache) Snapshot(st *stats) []Stat {
	r := &reading{c: c, st: st}
	out := r.render(func(row *counter) string { return row.stat })
	for i, s := range c.shards {
		out = append(out, Stat{
			fmt.Sprintf("shard%d_entries", i),
			fmt.Sprint(s.table.Len()),
		})
	}
	return out
}
