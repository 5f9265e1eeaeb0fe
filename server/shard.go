// Package server implements cuckood, a memcached-style network cache
// daemon backed by the generic concurrent cuckoo table. It is the service
// layer the paper's evaluation assumes (§6 measures the table inside
// MemC3, a memcached replacement): a text protocol over TCP with
// pipelining, a cache sharded N ways by key hash so lock stripes and Grow
// operations stay independent, TTL support with lazy expiry plus a
// background sweeper, bounded-memory admission (a full shard evicts the
// oldest write among the new key's own bucket neighbours instead of
// failing the connection), and per-shard statistics.
//
// The wire protocol is documented in docs/PROTOCOL.md.
package server

import (
	"errors"
	"hash/maphash"
	"log/slog"
	"math/bits"
	"sync/atomic"
	"time"

	"cuckoohash/generic"
	"cuckoohash/internal/obs"
	"cuckoohash/internal/replica"
)

// ErrServerFull is reported to a client when a SET cannot find room even
// after evicting; the connection itself stays up.
var ErrServerFull = errors.New("server: cache full")

// errShardFull is the internal no-room-without-eviction signal of a
// table write; the evict-and-retry loop (evicting) turns it into eviction
// attempts, with no pin held, and eventually into ErrServerFull.
var errShardFull = errors.New("server: shard full")

// errStaleReplica is put's "the local copy is at least as new" outcome
// for a replica write; applyReplicaSet turns it into applied=false.
var errStaleReplica = errors.New("server: stale replica write")

// maxEvictTries bounds how many victims one SET may evict before giving
// up. An eviction frees a slot in one of the key's own two buckets, so
// the retry lands unless a concurrent insert takes the slot first; only
// losing that race every time ends in ErrServerFull.
const maxEvictTries = 8

// growInitialDivisor is how much smaller than its configured capacity a
// shard starts: it grows incrementally (two-generation migration, never
// stop-the-world) by half at a time toward slotsPerShard as traffic fills
// it, its last grow landing on slotsPerShard exactly, so an oversized
// -slots no longer pays its worst-case footprint up front and a shard
// that stops short of it is about 0.79 full on average, not 0.69.
const growInitialDivisor = 8

// Cache is the sharded store behind the daemon. Keys are hashed to one of
// N independent cuckoo tables, so a Grow or stripe-lock convoy in one
// shard never stalls traffic to the others. All methods are safe for
// concurrent use.
type Cache struct {
	seed   maphash.Seed
	shards []*shard
	mask   uint64
	stats  *stats
	log    *slog.Logger
	failOp func(op, key string) error // fault-injection hook; nil in production

	// growHook, when non-nil, observes every shard grow event (start and
	// done) after it is logged; the server installs a flight-recorder
	// sink here before serving traffic.
	growHook func(shard int, ev generic.GrowEvent)

	// verClock is the node's hybrid version clock: nextVersion returns
	// max(wall nanos, prev+1), so versions are strictly monotonic locally
	// and approximately wall-clock ordered across nodes (the basis of
	// last-writer-wins replica application). observeVersion ratchets it
	// forward past any version received from a peer, so a node whose
	// clock lags never issues versions that lose to writes it has
	// already applied.
	verClock atomic.Uint64

	// repl, when non-nil, is the cuckoorepl mirror state: every
	// successful write enqueues onto the peer log of the key's other
	// two-choice candidate. Installed once before traffic by
	// Server.EnableReplication; nil keeps the write path at a single
	// pointer check.
	repl *replState

	// leases is the miss-lease table (docs/REPLICATION.md): the LEASE
	// verb grants one client the right to fill a missing key while the
	// rest wait or serve stale; every acknowledged mutation invalidates
	// the key's outstanding lease (wrote) so a delayed fill can never
	// publish over fresher data.
	leases *replica.LeaseTable

	// split holds the hot counters' pending deltas (split.go). Every
	// mutation of the shards — a verb, a transaction's commit, a plain
	// SET/DEL, TTL expiry, eviction, migration removal — runs under the
	// key's table pin, which serializes it with every other on the key,
	// and drains or discards the key's deltas under it.
	split *splitTable

	// commits and casConflicts are the txn_commits and txn_cas_conflicts
	// STATS rows (txn.go).
	commits, casConflicts atomic.Uint64
}

// shard is one cuckoo table of items (item.go): a slot is a tag byte and
// one reference, and the item it points to carries the key. The shard
// keeps no eviction order of its own: every item carries its write
// version, and a full shard asks the table which of the inserting key's
// bucket neighbours is oldest (evictFor).
type shard struct {
	table *generic.Table[string, item]
}

// NewCache creates a cache with the given shard count (rounded up to a
// power of two, min 1) and per-shard slot capacity. Total capacity is
// bounded: when a shard fills, SET evicts the oldest write near the key.
// Each shard starts small and grows by half toward slotsPerShard, which its
// last grow reaches exactly (rounded down to a multiple of eight slots:
// an even number of four-slot buckets), with the table's incremental
// two-generation migration — a grow never blocks the request loop behind a
// stop-the-world rehash. The table paces that migration itself: each table
// write made while a shard grows drains two old buckets as part of the
// write, and the sweeper the grow starts finishes it once the writes stop.
// The cache drives nothing.
func NewCache(shards int, slotsPerShard uint64) (*Cache, error) {
	if shards < 1 {
		shards = 1
	}
	if shards&(shards-1) != 0 {
		shards = 1 << bits.Len(uint(shards))
	}
	if slotsPerShard == 0 {
		slotsPerShard = 1 << 16
	}
	c := &Cache{
		seed:   maphash.MakeSeed(),
		shards: make([]*shard, shards),
		mask:   uint64(shards - 1),
		stats:  newStats(shards),
		log:    slog.New(slog.DiscardHandler),
		leases: replica.NewLeaseTable(0),
		split:  newSplitTable(),
	}
	initial := slotsPerShard / growInitialDivisor
	if initial < 64 {
		initial = slotsPerShard
	}
	for i := range c.shards {
		t, err := generic.NewKeyed(generic.Config{
			InitialCapacity: initial,
			MaxCapacity:     slotsPerShard,
			OnGrowEvent:     c.growEventFunc(i),
		}, item.key)
		if err != nil {
			return nil, err
		}
		c.shards[i] = &shard{table: t}
	}
	return c, nil
}

// growEventFunc builds shard i's grow-event callback: log it (grows are
// rare and operators want them in the timeline) and forward to the
// optional growHook sink. Events fire from whichever goroutine advances
// the migration — a request or the table's sweeper — so the callback
// must not block.
func (c *Cache) growEventFunc(i int) func(generic.GrowEvent) {
	return func(ev generic.GrowEvent) {
		c.log.Info("shard grow",
			"shard", i,
			"phase", ev.Kind.String(),
			"from_buckets", ev.FromBuckets,
			"to_buckets", ev.ToBuckets,
			"backlog", ev.Backlog)
		if h := c.growHook; h != nil {
			h(i, ev)
		}
	}
}

// nextVersion issues the next write version: wall-clock nanoseconds,
// bumped past the previous issue when the clock stalls or steps back.
// Lock-free (CAS loop), so it is legal under a key's pin.
func (c *Cache) nextVersion() uint64 {
	now := uint64(time.Now().UnixNano())
	for {
		prev := c.verClock.Load()
		v := now
		if v <= prev {
			v = prev + 1
		}
		if c.verClock.CompareAndSwap(prev, v) {
			return v
		}
	}
}

// observeVersion ratchets the version clock to at least v. Called when
// applying a replicated write so locally issued versions always order
// after everything this node has already accepted.
func (c *Cache) observeVersion(v uint64) {
	for {
		prev := c.verClock.Load()
		if v <= prev {
			return
		}
		if c.verClock.CompareAndSwap(prev, v) {
			return
		}
	}
}

// store is the one write of a built item. Every item that lands in a shard
// — a client SET, a mirrored, restored or handed-off record — is put here,
// in one table Update of the key; a counter verb, a CAS swap, a split fold
// and a transaction commit build theirs under the pin instead (update,
// Exec). The decision that publishes a local write issues its version
// (nextVersion) and stamps it into the item, so the key's pin orders
// versions: per key they rise in store order, however often an attempt is
// sent away to evict or the table re-runs the decision after a path
// search. The step after the applied write, under the same pin, discards
// the key's pending split deltas — the SET replaces whatever they would
// have added — and mirrors a local write to the key's alternate node, so
// the peer log carries a key's writes in the order they were applied. A
// write from a peer keeps its origin version, is last-writer-wins — it
// lands only over an older local copy, else store reports errStaleReplica
// — and is never re-mirrored (that is what stops a mirrored write bouncing
// between the pair). The version is also the item's age when a full shard
// picks a victim (evictFor).
func (c *Cache) store(sh *shard, it item, fromPeer bool) error {
	act, err := sh.table.UpdateThen(it.key(), func(cur item, found bool) (item, generic.Action) {
		if !fromPeer {
			it.stamp(c.nextVersion())
		} else if found && cur.ver() >= it.ver() {
			return it, generic.Keep // the local copy is newer, or this is a redelivery
		}
		return it, generic.Store
	}, func(_ item, act generic.Action, _ bool) {
		if act == generic.Store {
			c.split.discard(it.key())
			if !fromPeer {
				c.replEnqueue(it.key(), it)
			}
		}
	})
	switch {
	case err != nil:
		// ErrFull: the caller must evict and retry. The victim's removal
		// is one pin of the victim's key, and none is held meanwhile.
		return errShardFull
	case act == generic.Keep:
		return errStaleReplica
	}
	return nil
}

// removeIf is the one conditional removal — of an evicted, expired or
// migrated item (removeIfUnchanged) and of a peer's tombstone
// (applyReplicaDel): it removes key's entry if there is one and drop, given
// it, says so, and reports whether it did. The check and the delete are
// one table Update; the step after a removal discards the key's pending
// split deltas, which went with it. The table work is attributed to sp as
// StageProbe.
func (c *Cache) removeIf(key string, sp *obs.Span, drop func(item) bool) bool {
	t0 := sp.Begin()
	act, _ := c.shards[c.shardFor(key)].table.UpdateThen(key, func(cur item, found bool) (item, generic.Action) {
		if found && drop(cur) {
			return item{}, generic.Remove
		}
		return item{}, generic.Keep
	}, func(_ item, act generic.Action, _ bool) {
		if act == generic.Remove {
			c.split.discard(key)
		}
	})
	sp.End(obs.StageProbe, t0)
	return act == generic.Remove
}

// setLogger swaps the cache's logger; called before the cache is shared.
func (c *Cache) setLogger(log *slog.Logger) {
	if log != nil {
		c.log = log
	}
}

// shardFor maps a key to its shard index.
func (c *Cache) shardFor(key string) int {
	return int(maphash.String(c.seed, key) & c.mask)
}

// shardForBytes is shardFor without the string: maphash.Bytes is
// documented to agree with maphash.String on the same bytes, so both
// forms of a key land on the same shard.
func (c *Cache) shardForBytes(key []byte) int {
	return int(maphash.Bytes(c.seed, key) & c.mask)
}

// Len returns the number of stored entries (including not-yet-expired
// ones awaiting the sweeper).
func (c *Cache) Len() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.table.Len()
	}
	return n
}

// Cap returns the total slot capacity across shards.
func (c *Cache) Cap() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.table.Cap()
	}
	return n
}

// Stats exposes the cache's counters.
func (c *Cache) Stats() *stats { return c.stats }

// SetFailpoint installs a fault-injection hook (see faultinject.FailOp)
// consulted before each SET; its error is returned to the client as if
// the table itself had failed, e.g. a forced ErrServerFull. Install
// before serving traffic; nil disables.
func (c *Cache) SetFailpoint(f func(op, key string) error) { c.failOp = f }

// Set stores key=val with the given TTL (0 = no expiry). When the shard
// is full it evicts an entry from one of key's two buckets; if concurrent
// inserts take the freed slot maxEvictTries times over it returns
// ErrServerFull. The cache keeps its own copy of both strings.
func (c *Cache) Set(key, val string, ttl time.Duration) error {
	_, err := c.set([]byte(key), []byte(val), ttl, nil)
	return err
}

// set is the one client write behind SET, SETEX, SETV, SETL and Set; the
// verbs differ only in what they reply. key and val may alias the
// connection read buffer: the item built from them is the only copy kept.
// It returns the version the write stored. sp (nil-safe) receives the
// stage attribution.
//
//cuckoo:hotpath the SET path allocates exactly the item it stores
func (c *Cache) set(key, val []byte, ttl time.Duration, sp *obs.Span) (uint64, error) {
	if f := c.failOp; f != nil {
		//lint:allow cuckoovet:allocfree fault-injection hook: nil in production, installed only by tests
		if err := f(opSet.String(), string(key)); err != nil {
			return 0, err
		}
	}
	var expireAt int64
	if ttl > 0 {
		expireAt = time.Now().Add(ttl).UnixNano()
	}
	si := c.shardForBytes(key)
	it, err := c.put(si, key, val, expireAt, 0, false, sp)
	if err != nil {
		return 0, err
	}
	c.stats.count(si, statSets)
	c.wrote(it.key())
	return it.ver(), nil
}

// put builds the item for key=val, once and before any lock, and stores
// it in one pin of key, with eviction on a full shard; it returns the item
// stored. A local write is issued its version by the decision that
// publishes it (store), so an attempt sent away to evict retries with the
// same item. A put from a peer (REPLSET, snapshot restore, HANDOFF load)
// carries its origin version ver and is last-writer-wins: unless ver is
// newer than the local copy's it stores nothing and reports
// errStaleReplica.
func (c *Cache) put(si int, key, val []byte, expireAt int64, ver uint64, fromPeer bool, sp *obs.Span) (item, error) {
	sh := c.shards[si]
	it := newItem(ver, expireAt, key, val)
	err := c.evicting(si, it.key(), sp, func() error {
		t0 := sp.Begin()
		err := c.store(sh, it, fromPeer)
		sp.End(obs.StageProbe, t0)
		return err
	})
	return it, err
}

// evicting is the one evict-and-retry loop: run attempt (which stores
// key, pinning it itself); while it reports a full shard, evict one of
// key's bucket neighbours with no pin held and retry. The slot
// freed is one the retry's first probe sees, so one eviction admits one
// key and further rounds only make up for a slot lost to a concurrent
// insert.
func (c *Cache) evicting(si int, key string, sp *obs.Span, attempt func() error) error {
	for tries := 0; ; tries++ {
		err := attempt()
		if !errors.Is(err, errShardFull) {
			return err
		}
		if tries >= maxEvictTries {
			return ErrServerFull
		}
		t0 := sp.Begin()
		c.evictFor(si, key)
		sp.End(obs.StageEvict, t0)
	}
}

// wrote is the one post-write step: every applied mutation of key —
// whatever the verb, alone or inside EXEC, local or replicated — passes
// through here. It kills any outstanding fill lease on the key, so an
// in-flight SETL holding a now-stale token loses its ValidateRelease.
// Gated on one atomic load: the write path pays nothing when no leases
// are outstanding anywhere.
func (c *Cache) wrote(key string) {
	if c.leases.Active() > 0 {
		c.leases.Invalidate(key)
	}
}

// evictFor makes room for key in full shard si: it deletes, among the
// entries sharing key's two candidate buckets, an expired one if there
// is one and the oldest write otherwise (Kuszmaul's kick-out eviction,
// arXiv:1605.05236, with the hybrid-clock version as the age). Choosing
// among at most 2·B entries is a sample of the shard, not its global
// oldest, which is what buys deleting the eviction order altogether. The
// delete is MIGRATE's (removeIfUnchanged): one pin of the victim's key,
// taken with none held, which orders the removal against EXEC and a split
// fold on the victim; it removes the item chosen, not a write of the
// victim's key that landed since.
//
//cuckoo:coldpath eviction runs only when a shard is full; the documented admission slow path
func (c *Cache) evictFor(si int, key string) {
	s := c.shards[si]
	now := time.Now().UnixNano()
	victim, it, ok := s.table.Oldest(key, func(a, b item) bool { return a.olderThan(b, now) })
	if ok && c.removeIfUnchanged(it) {
		c.stats.count(si, statEvictions)
		// Eviction only happens when a shard is full, so this is off
		// the fast path even at debug verbosity.
		c.log.Debug("evicted entry", "shard", si, "key", victim)
	}
}

// Lookup outcomes: a live hit, an expired-but-unswept copy, or nothing.
const (
	probeLive = iota
	probeStale
	probeAbsent
)

// lookup is the one versioned read behind GET, GETV, LEASE, TTL and the
// string-key entry points. It first folds pending split deltas so the
// read observes every acknowledged commutative update (one atomic load
// when no keys are split, the common state), then probes the key's
// shard with the raw bytes — key may still alias the connection read
// buffer, and a hit or a miss never materializes a string — and
// classifies what it found. What to do with a stale copy is the
// caller's decision: GET, GETV and TTL expire it lazily (so a key never
// outlives its TTL from a client's point of view even if the sweeper has
// not run yet), LEASE serves it.
func (c *Cache) lookup(key []byte, sp *obs.Span) (it item, si int, state int) {
	c.reconcileKeyBytes(key)
	si = c.shardForBytes(key)
	t0 := sp.Begin()
	it, ok := generic.GetBytes(c.shards[si].table, key)
	sp.End(obs.StageProbe, t0)
	switch {
	case !ok:
		return item{}, si, probeAbsent
	case it.expiredNow():
		return it, si, probeStale
	}
	return it, si, probeLive
}

// countGet books one read against shard si's hit/miss counters.
func (c *Cache) countGet(si int, hit bool) {
	c.stats.count(si, statGets)
	if hit {
		c.stats.count(si, statHits)
	} else {
		c.stats.count(si, statMisses)
	}
}

// get is GET and GETV: the live item, or a miss. The verbs differ only
// in which fields of the item they reply with.
func (c *Cache) get(key []byte, sp *obs.Span) (item, bool) {
	it, si, state := c.lookup(key, sp)
	c.countGet(si, state == probeLive)
	if state == probeLive {
		return it, true
	}
	if state == probeStale {
		c.expireKey(si, it)
	}
	return item{}, false
}

// GetBytesTraced returns the live value for a key still aliasing the
// connection read buffer, with the probe attributed to sp as StageProbe.
//
//cuckoo:hotpath the byte-key GET in-process callers share with the wire; server/hotalloc_test.go asserts 0 allocs/op
func (c *Cache) GetBytesTraced(key []byte, sp *obs.Span) (string, bool) {
	it, ok := c.get(key, sp)
	if !ok {
		return "", false
	}
	return it.val(), true
}

// Get returns the live value for key.
func (c *Cache) Get(key string) (string, bool) {
	return c.GetBytesTraced([]byte(key), nil)
}

// TTL returns the remaining lifetime of key: (d, true) with d > 0 for an
// expiring entry, (0, true) for a persistent one, (0, false) for a miss.
// It is a metadata peek, not a get: hit/miss counters are untouched.
func (c *Cache) TTL(key string) (time.Duration, bool) {
	it, si, state := c.lookup([]byte(key), nil)
	if state == probeAbsent {
		return 0, false
	}
	exp := it.expireAt()
	if exp == 0 {
		return 0, true
	}
	d := time.Duration(exp - time.Now().UnixNano())
	if d <= 0 {
		c.expireKey(si, it)
		return 0, false
	}
	return d, true
}

// Delete removes key, reporting whether it was present and live; the
// removal's pin and probe are attributed to sp. A live entry's delete, or
// one of a split counter whose value is all pending deltas, discards those
// and is mirrored as a versioned tombstone, in the step after the removal
// under the same pin. An expired-but-unswept entry is removed as expiry
// removes it — unmirrored: each replica holds the same absolute expireAt
// and lapses on its own — and looks deleted-as-miss, not OK.
func (c *Cache) Delete(key string, sp *obs.Span) bool {
	si := c.shardFor(key)
	c.stats.count(si, statDels)
	present := false
	t0 := sp.Begin()
	act, _ := c.shards[si].table.UpdateThen(key, func(cur item, found bool) (item, generic.Action) {
		present = c.split.discard(key) || found && !cur.expiredNow()
		return item{}, generic.Remove
	}, func(_ item, _ generic.Action, _ bool) {
		if present {
			c.replEnqueue(key, item{})
		}
	})
	sp.End(obs.StageProbe, t0)
	switch {
	case present:
		c.wrote(key)
	case act == generic.Remove:
		c.stats.count(si, statExpired)
	}
	return present
}

// expireKey removes it, an item of shard si observed to be expired, if it
// is still there: an item never changes, so it is still expired, and a
// concurrent re-SET of the same key, a new item, is never deleted
// (removeIfUnchanged). It reports whether an entry was actually removed.
//
//cuckoo:coldpath lazy expiry fires once per dead entry observed; never on the live-hit path
func (c *Cache) expireKey(si int, it item) bool {
	removed := c.removeIfUnchanged(it)
	if removed {
		c.stats.count(si, statExpired)
	}
	return removed
}
