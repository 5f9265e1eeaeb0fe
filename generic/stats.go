package generic

import "cuckoohash/internal/metrics"

// PathLenBuckets is the width of the path-length histogram; BFS paths are
// bounded around 5 for the default associativity and search budget (Eq. 2
// of the paper), so 16 buckets cover them with room, and the last bucket
// absorbs anything longer.
const PathLenBuckets = metrics.PathLenBuckets

// Stats is a snapshot of a table's operational counters. The embedded
// probe counters (Searches, Displacements, PathRestarts, MaxPathLen,
// PathLenHist) are the ones core.Stats carries, from the same type, so
// service-layer code can treat the two tables uniformly.
type Stats struct {
	metrics.ProbeStats
	// Grows counts automatic table expansions started (the live arrays
	// grew by half; draining the previous generation proceeds
	// incrementally).
	Grows uint64
	// MigratedBuckets counts old-generation buckets drained by the
	// incremental-resize migrator since the table was created.
	MigratedBuckets uint64
	// MigrationBacklog is the number of old-generation buckets still
	// awaiting migration; 0 when no grow is in flight.
	MigrationBacklog uint64
}

// Stats returns a snapshot of the table's counters.
func (t *Table[K, V]) Stats() Stats {
	return Stats{
		ProbeStats:       t.probe.Snapshot(),
		Grows:            t.growCount.Load(),
		MigratedBuckets:  t.migratedBuckets.Load(),
		MigrationBacklog: backlog(t.loadState()),
	}
}
