package core

import (
	"runtime"

	"cuckoohash/internal/metrics"
)

func runtimeGosched() { runtime.Gosched() }

// Stats is a snapshot of a table's operational counters: the probe
// counters every cuckoo engine in the module keeps (Searches,
// Displacements, PathRestarts, MaxPathLen, PathLenHist) plus this
// engine's own.
type Stats struct {
	metrics.ProbeStats
	// Grows counts completed table expansions.
	Grows uint64
}

// Stats returns a snapshot of the table's counters.
func (t *Table) Stats() Stats {
	return Stats{ProbeStats: t.probe.Snapshot(), Grows: t.growCount.Load()}
}

// ResetStats zeroes the table's counters (not its contents).
func (t *Table) ResetStats() { t.probe.Reset() }
