package core

import (
	"runtime"
	"sync"
	"time"

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

// GrowEvent records one completed table expansion, for the grow-history
// probe: expansions are rare but stall every writer, so operators want to
// see when they happened and how long the all-stripe critical section was.
type GrowEvent struct {
	// FromBuckets and ToBuckets are the bucket counts before and after.
	FromBuckets, ToBuckets uint64
	// Items is the number of entries rehashed.
	Items uint64
	// Duration is the wall time the expansion held every stripe lock.
	Duration time.Duration
	// Unix is the completion time in Unix nanoseconds.
	Unix int64
}

// maxGrowEvents bounds the retained grow history; a table that doubled 64
// times grew by 2^64, so truncation is theoretical.
const maxGrowEvents = 64

// GrowEvents returns a copy of the recorded expansion history, oldest
// first.
func (t *Table) GrowEvents() []GrowEvent {
	t.growLog.mu.Lock()
	defer t.growLog.mu.Unlock()
	out := make([]GrowEvent, len(t.growLog.events))
	copy(out, t.growLog.events)
	return out
}

// growLog holds the expansion history. Appends happen under growMu (one
// per expansion); the extra mutex only decouples readers from growers.
type growLog struct {
	mu     sync.Mutex
	events []GrowEvent
}

func (l *growLog) record(e GrowEvent) {
	//lint:allow cuckoovet:blockcheck runs once per expansion under the stop-the-world grow path; decouples GrowEvents readers, never contended on the request path
	l.mu.Lock()
	if len(l.events) >= maxGrowEvents {
		l.events = l.events[1:]
	}
	l.events = append(l.events, e)
	l.mu.Unlock()
}
