package server

import (
	"fmt"

	"cuckoohash/internal/obs"
)

// Collect implements obs.Collector: it renders the counter table, the
// sampled request-latency histogram, and the cuckoo tables' internal probe
// distributions (path lengths, transaction retries) in Prometheus
// exposition order — slot by slot, with the series that are not table
// rows after the slot that precedes them. Registered by cmd/cuckood on its
// admin endpoint; safe to call while the server is serving traffic,
// because every source it reads is a lock-free snapshot.
func (s *Server) Collect(m *obs.Metrics) {
	c := s.cache
	r := &reading{c: c, st: c.stats}
	for at := slot(0); at < numSlots; at++ {
		r.collect(m, at)
		switch at {
		case atSize:
			for i, sh := range c.shards {
				m.Gauge("cuckood_shard_entries", "Stored entries per shard.",
					float64(sh.table.Len()), "shard", fmt.Sprint(i))
			}
			m.NanosHistogram("cuckood_request_duration_seconds",
				"Sampled request service time (excludes network I/O).", r.latency())
		case atGrow:
			// The signal the paper's Eq. 2 bounds: PathLenHist[i] counts
			// paths of exactly i displacements.
			hb, total, sum := exactBuckets(r.table().tab.PathLenHist[:])
			m.Histogram("cuckoo_table_path_length",
				"Discovered cuckoo-path length in displacements (Eq. 2 bounds this near 5).",
				hb, total, sum)
		case atTxn:
			// The cuckootrace series (docs/OBSERVABILITY.md): per-{stage,verb}
			// latency attribution, the hot-key top-K, and the slow-request
			// trace-ID exemplars.
			c.stats.stages.Collect(m,
				"cuckood_stage_seconds",
				"Sampled request time attributed to pipeline stages, per verb.")
			for _, it := range c.stats.HotKeys(10) {
				m.Gauge("cuckood_hot_key_count",
					"Sampled-request touches of the hottest keys (space-saving top-K; counts overestimate by at most the sketch error).",
					float64(it.Count), "key", it.Key)
			}
			c.stats.slowTraces.Collect(m,
				"cuckood_slow_trace_seconds",
				"Duration of recent slow requests that carried a wire trace ID, as exemplars.")
		}
	}
}

// collect emits the exported rows of one slot.
func (r *reading) collect(m *obs.Metrics, at slot) {
	var name, help string
	for i := range counters {
		row := &counters[i]
		if row.prom != "" {
			name, help = row.prom, row.help
		}
		if row.at != at || (row.prom == "" && row.label == nil) {
			continue
		}
		v := row.read(r)
		if row.unit != 0 {
			v /= row.unit
		}
		emit := m.Counter
		if row.kind == obs.KindGauge {
			emit = m.Gauge
		}
		emit(name, help, v, row.label...)
	}
}

// exactBuckets turns a histogram whose cell i counts observations of
// exactly i into cumulative buckets; the last cell absorbs everything
// larger, which the +Inf bucket represents.
func exactBuckets(hist []uint64) (hb []obs.HistBucket, total uint64, sum float64) {
	last := len(hist) - 1
	hb = make([]obs.HistBucket, 0, last)
	var cum uint64
	for i, n := range hist {
		total += n
		sum += float64(uint64(i) * n)
		if i < last {
			cum += n
			hb = append(hb, obs.HistBucket{UpperBound: float64(i), Count: cum})
		}
	}
	return hb, total, sum
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
