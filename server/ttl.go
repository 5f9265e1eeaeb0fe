package server

import (
	"time"
)

// sweepBatch bounds how many expired keys one shard sheds per sweep pass,
// so each Range walk stays short (the same critical-section-shortening
// discipline the table itself follows). Range locks one bucket stripe at
// a time — never the whole table — so concurrent traffic keeps flowing
// while the sweep scans. Range finishes any in-flight incremental resize
// before it walks, so the sweep sees a single generation; finishing the
// resize of a shard that stops seeing writes mid-grow is the table's own
// background sweeper's job, not this one's.
const sweepBatch = 1024

// Sweep scans every shard once and deletes entries whose TTL has passed,
// returning how many it removed. The scan collects victims during the
// stripe-at-a-time Range walk but deletes them afterwards with the
// ordinary per-key locks, so writers are only briefly excluded.
func (c *Cache) Sweep() uint64 {
	now := time.Now().UnixNano()
	var removed uint64
	victims := make([]item, 0, 64)
	for si, s := range c.shards {
		victims = victims[:0]
		s.table.Range(func(_ string, it item) bool {
			if it.expired(now) {
				victims = append(victims, it)
			}
			return len(victims) < sweepBatch
		})
		for _, it := range victims {
			if c.expireKey(si, it) {
				removed++
			}
		}
	}
	return removed
}

// sweeper runs Sweep every interval until stop is closed.
func (c *Cache) sweeper(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			start := time.Now()
			removed := c.Sweep()
			c.stats.sweeps.Add(1)
			if removed > 0 {
				c.log.Debug("ttl sweep",
					"removed", removed,
					"dur", time.Since(start))
			}
		case <-stop:
			return
		}
	}
}
