package server

import (
	"fmt"
	"math"

	"cuckoohash/generic"
	"cuckoohash/internal/obs"
)

// latencyExportBuckets bounds the exported request-latency histogram at
// 2^40 ns (~18 minutes); anything slower lands in the automatic +Inf
// bucket. The internal histogram keeps all 64 power-of-two buckets.
const latencyExportBuckets = 40

// Collect implements obs.Collector: it renders the daemon's counters, the
// sampled request-latency histogram, and the cuckoo tables' internal probe
// counters (path-length distribution, restarts, stripe-lock contention) in
// Prometheus exposition order. Registered by cmd/cuckood on its admin
// endpoint; safe to call while the server is serving traffic, because every
// source it reads is a lock-free snapshot.
func (s *Server) Collect(m *obs.Metrics) {
	st := s.cache.stats

	m.Counter("cuckood_gets_total", "GET requests served.", float64(st.gets.Total()))
	m.Counter("cuckood_hits_total", "GET requests that found a live entry.", float64(st.hits.Total()))
	m.Counter("cuckood_misses_total", "GET requests that missed.", float64(st.misses.Total()))
	m.Counter("cuckood_sets_total", "SET/SETEX requests stored.", float64(st.sets.Total()))
	m.Counter("cuckood_dels_total", "DEL requests served.", float64(st.dels.Total()))
	m.Counter("cuckood_expired_total", "Entries removed because their TTL passed.", float64(st.expired.Total()))
	m.Counter("cuckood_evictions_total", "Entries evicted to make room on a full shard.", float64(st.evictions.Total()))
	m.Counter("cuckood_slow_requests_total", "Requests at or over the slow-op threshold.", float64(st.slowOps.Load()))
	m.Counter("cuckood_ttl_sweeps_total", "Completed TTL sweeper passes.", float64(st.sweeps.Load()))

	m.Gauge("cuckood_connections_active", "Currently open client connections.", float64(st.connsActive.Load()))
	m.Counter("cuckood_connections_total", "Client connections accepted since start.", float64(st.connsTotal.Load()))

	m.Counter("cuckood_accept_retries_total", "Temporary accept errors retried with backoff.", float64(st.acceptRetries.Load()))
	m.Counter("cuckood_connections_shed_total", "Connections refused at accept because of -max-conns.", float64(st.connsShed.Load()))
	m.Counter("cuckood_busy_rejections_total", "Requests fast-failed with ERR busy because of -max-inflight.", float64(st.busyRejected.Load()))
	m.Counter("cuckood_idle_closes_total", "Connections closed by the idle timeout.", float64(st.idleClosed.Load()))
	m.Counter("cuckood_io_timeouts_total", "Connections closed because a response flush timed out.", float64(st.ioTimeouts.Load()))
	m.Counter("cuckood_snapshot_saves_total", "Cache snapshots written on drain.", float64(st.snapSaves.Load()))
	m.Counter("cuckood_snapshot_loads_total", "Cache snapshots restored at startup.", float64(st.snapLoads.Load()))
	m.Gauge("cuckood_snapshot_last_save_seconds", "Duration of the most recent snapshot save.", float64(st.snapSaveNs.Load())/1e9)
	m.Gauge("cuckood_snapshot_last_load_seconds", "Duration of the most recent snapshot load.", float64(st.snapLoadNs.Load())/1e9)

	m.Counter("cuckood_cluster_migrated_keys_total", "Keys moved between nodes by MIGRATE/HANDOFF, by direction.",
		float64(st.migratedIn.Load()), "direction", "in")
	m.Counter("cuckood_cluster_migrated_keys_total", "Keys moved between nodes by MIGRATE/HANDOFF, by direction.",
		float64(st.migratedOut.Load()), "direction", "out")
	m.Counter("cuckood_cluster_handoffs_total", "Inbound bulk key transfers applied.", float64(st.handoffs.Load()))
	m.Counter("cuckood_cluster_handoff_rejects_total", "Inbound bulk key transfers rejected as invalid.", float64(st.handoffRejects.Load()))
	m.Counter("cuckood_cluster_migrate_failures_total", "Outbound migrations that failed before any key was removed.", float64(st.migrateFails.Load()))

	m.Gauge("cuckood_entries", "Stored entries across all shards.", float64(s.cache.Len()))
	m.Gauge("cuckood_capacity_slots", "Total slot capacity across all shards.", float64(s.cache.Cap()))
	for i, sh := range s.cache.shards {
		m.Gauge("cuckood_shard_entries", "Stored entries per shard.",
			float64(sh.table.Len()), "shard", fmt.Sprint(i))
	}

	s.collectLatency(m)
	s.collectTable(m)
	s.collectTxn(m)
	s.collectTrace(m)
	s.collectRepl(m)
	s.collectLease(m)
}

// collectRepl exports the cuckoorepl mirror-path series
// (docs/REPLICATION.md): how much write traffic is being mirrored to
// the alternate node, how far behind the mirror stream is, and how
// often the bulk catch-up path had to repair it.
func (s *Server) collectRepl(m *obs.Metrics) {
	st := s.cache.stats
	depth, dropped := s.cache.replLogTotals()

	m.Counter("cuckood_repl_enqueued_total", "Writes enqueued for mirroring to the alternate node.", float64(st.replEnqueued.Load()))
	m.Counter("cuckood_repl_mirrored_total", "Mirror log entries delivered to the alternate node.", float64(st.replMirrored.Load()))
	m.Counter("cuckood_repl_batches_total", "Mirror batches flushed to the alternate node.", float64(st.replBatches.Load()))
	m.Counter("cuckood_repl_send_failures_total", "Mirror sends that failed and latched a bulk catch-up.", float64(st.replSendFails.Load()))
	m.Counter("cuckood_repl_catchups_total", "Snapshot-format bulk catch-ups shipped after overflow or send failure.", float64(st.replCatchups.Load()))
	m.Counter("cuckood_repl_dropped_total", "Mirror log entries overwritten by drop-oldest overflow (repaired by catch-up).", float64(dropped))
	m.Counter("cuckood_repl_applied_total", "Inbound replicated writes applied, by result.",
		float64(st.replApplied.Load()), "result", "applied")
	m.Counter("cuckood_repl_applied_total", "Inbound replicated writes applied, by result.",
		float64(st.replStale.Load()), "result", "stale_dropped")
	m.Gauge("cuckood_repl_queue_depth", "Mutations buffered in the mirror logs awaiting delivery.", float64(depth))
	m.Gauge("cuckood_repl_lag_seconds", "Age of the oldest undelivered mirror entry at the last flush (0 when drained).", float64(st.replLagNs.Load())/1e9)
}

// collectLease exports the miss-lease series: grants tell you miss
// storms are being collapsed, waits/stale-serves tell you how the
// non-winning clients were handled, and rejects count fills that lost
// to a fresher write.
func (s *Server) collectLease(m *obs.Metrics) {
	st := s.cache.stats
	m.Counter("cuckood_lease_grants_total", "Fill leases granted to the first client missing a key.", float64(st.leaseGrants.Load()))
	m.Counter("cuckood_lease_waits_total", "LEASE requests told to wait for an in-flight fill.", float64(st.leaseWaits.Load()))
	m.Counter("cuckood_lease_stale_serves_total", "LEASE requests served an expired copy while a fill was in flight.", float64(st.leaseStaleServes.Load()))
	m.Counter("cuckood_lease_fills_total", "SETL fills accepted from lease winners.", float64(st.leaseFills.Load()))
	m.Counter("cuckood_lease_rejects_total", "SETL fills rejected because the lease was invalidated or expired.", float64(st.leaseRejects.Load()))
	m.Gauge("cuckood_lease_active", "Outstanding fill leases.", float64(s.cache.leases.Active()))
}

// collectTrace exports the cuckootrace series (docs/OBSERVABILITY.md):
// the per-{stage,verb} latency attribution, the hot-key top-K, and the
// slow-request trace-ID exemplars.
func (s *Server) collectTrace(m *obs.Metrics) {
	st := s.cache.stats
	st.stages.Collect(m,
		"cuckood_stage_seconds",
		"Sampled request time attributed to pipeline stages, per verb.")
	for _, it := range st.HotKeys(10) {
		m.Gauge("cuckood_hot_key_count",
			"Sampled-request touches of the hottest keys (space-saving top-K; counts overestimate by at most the sketch error).",
			float64(it.Count), "key", it.Key)
	}
	st.slowTraces.Collect(m,
		"cuckood_slow_trace_seconds",
		"Duration of recent slow requests that carried a wire trace ID, as exemplars.")
}

// collectTxn exports the transaction subsystem's counters: OCC commit and
// abort traffic, the per-commit retry distribution, and the Doppel-style
// split-counter lifecycle (docs/TRANSACTIONS.md).
func (s *Server) collectTxn(m *obs.Metrics) {
	tx := s.cache.Txn().StatsSnapshot()

	m.Counter("cuckood_txn_commits_total", "EXEC transactions committed (optimistic or pessimistic).", float64(tx.Commits))
	m.Counter("cuckood_txn_aborts_total", "Optimistic EXEC attempts aborted by stripe-version validation.", float64(tx.Aborts))
	m.Counter("cuckood_txn_epoch_aborts_total", "Optimistic EXEC attempts aborted because a shard's migration epoch moved under a read-set entry.", float64(tx.EpochAborts))
	m.Counter("cuckood_txn_fallbacks_total", "EXEC transactions that exhausted optimistic retries and committed via the stripe-ordered pessimistic path.", float64(tx.Fallbacks))
	m.Counter("cuckood_txn_cas_conflicts_total", "CAS operations rejected because the current value differed.", float64(tx.CASConflicts))
	m.Counter("cuckood_txn_split_ops_total", "Commutative updates absorbed by per-shard split counters instead of the key's stripe.", float64(tx.SplitOps))
	m.Counter("cuckood_txn_split_reconciles_total", "Hot-key delta reconciliations folded into the table.", float64(tx.Reconciles))
	m.Counter("cuckood_txn_split_promotions_total", "Keys promoted to split-counter mode after stripe contention.", float64(tx.Promotions))
	m.Counter("cuckood_txn_split_demotions_total", "Hot keys demoted back to the direct path after going idle.", float64(tx.Demotions))
	m.Gauge("cuckood_txn_hot_keys", "Keys currently in split-counter mode.", float64(tx.HotKeys))

	// RetryHist[i] counts commits that needed exactly i optimistic retries;
	// the final bucket counts pessimistic fallbacks and maps to +Inf.
	n := len(tx.RetryHist)
	hb := make([]obs.HistBucket, 0, n-1)
	var cum, total uint64
	var sum float64
	for i, c := range tx.RetryHist {
		total += c
		sum += float64(uint64(i) * c)
		if i < n-1 {
			cum += c
			hb = append(hb, obs.HistBucket{UpperBound: float64(i), Count: cum})
		}
	}
	m.Histogram("cuckood_txn_retries",
		"Optimistic retries per committed EXEC (+Inf bucket = pessimistic fallback).",
		hb, total, sum)
}

// collectLatency exports the sampled request-service-time histogram. The
// internal buckets are powers of two in nanoseconds, so bucket i maps to
// le = 2^i / 1e9 seconds.
func (s *Server) collectLatency(m *obs.Metrics) {
	lat := s.cache.stats.lat.Snapshot()
	bk := lat.Buckets()
	hb := make([]obs.HistBucket, 0, latencyExportBuckets)
	var cum uint64
	for i := 0; i < latencyExportBuckets; i++ {
		cum += bk[i]
		hb = append(hb, obs.HistBucket{
			UpperBound: math.Ldexp(1, i) / 1e9,
			Count:      cum,
		})
	}
	m.Histogram("cuckood_request_duration_seconds",
		"Sampled request service time (excludes network I/O).",
		hb, lat.Count(), float64(lat.Sum())/1e9)
}

// collectTable exports the aggregated cuckoo-table internals: the signals
// the paper's evaluation inspects (BFS path lengths per Eq. 2, restart
// counts per Eq. 1) plus stripe-lock contention.
func (s *Server) collectTable(m *obs.Metrics) {
	tab, lock := s.cache.tableTotals()

	m.Counter("cuckoo_table_searches_total", "BFS cuckoo-path searches (slow-path inserts).", float64(tab.Searches))
	m.Counter("cuckoo_table_displacements_total", "Item moves along cuckoo paths.", float64(tab.Displacements))
	m.Counter("cuckoo_table_path_restarts_total", "Inserts restarted because a concurrent writer invalidated the path (Eq. 1).", float64(tab.PathRestarts))
	m.Counter("cuckoo_table_grows_total", "Automatic table expansions started (each drains incrementally).", float64(tab.Grows))
	m.Gauge("cuckoo_table_max_path_length", "Longest discovered cuckoo path, in displacements.", float64(tab.MaxPathLen))

	m.Counter("cuckood_grow_migrated_buckets_total", "Old-generation buckets drained by the incremental-resize migrator.", float64(tab.MigratedBuckets))
	m.Gauge("cuckood_grow_backlog_buckets", "Old-generation buckets still awaiting migration across all shards.", float64(tab.MigrationBacklog))
	m.Gauge("cuckood_grow_in_progress", "Shards with an incremental resize in flight.", float64(s.cache.growingShards()))

	// PathLenHist[i] counts paths of exactly i displacements; the last
	// bucket absorbs longer paths, which the +Inf bucket represents.
	hb := make([]obs.HistBucket, 0, generic.PathLenBuckets-1)
	var cum, total uint64
	var sum float64
	for i, n := range tab.PathLenHist {
		total += n
		sum += float64(uint64(i) * n)
		if i < generic.PathLenBuckets-1 {
			cum += n
			hb = append(hb, obs.HistBucket{UpperBound: float64(i), Count: cum})
		}
	}
	m.Histogram("cuckoo_table_path_length",
		"Discovered cuckoo-path length in displacements (Eq. 2 bounds this near 5).",
		hb, total, sum)

	m.Counter("cuckoo_lock_acquisitions_total", "Stripe-lock acquisitions across all shards.", float64(lock.Acquisitions))
	m.Counter("cuckoo_lock_contended_total", "Stripe-lock acquisitions that found the lock held.", float64(lock.Contended))
	m.Counter("cuckoo_lock_yields_total", "Scheduler yields while spinning on a stripe lock.", float64(lock.Yields))
}

// ExpvarSnapshot returns the STATS lines as a name→value map, suitable for
// obs.PublishExpvar so /debug/vars mirrors the wire-protocol STATS verb.
func (s *Server) ExpvarSnapshot() any {
	lines := s.cache.Snapshot(s.cache.stats)
	out := make(map[string]string, len(lines))
	for _, l := range lines {
		out[l.Name] = l.Value
	}
	return out
}
