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
	"cuckoohash/internal/txn"
)

// ErrServerFull is reported to a client when a SET cannot find room even
// after evicting; the connection itself stays up.
var ErrServerFull = errors.New("server: cache full")

// errShardFull is the internal no-room-without-eviction signal from the
// txn-layer backing store; Cache-level write loops turn it into eviction
// attempts (outside any stripe) and eventually into ErrServerFull.
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

// migrateBatchPerOp is how many old-generation buckets each mutating
// request drains when its shard has a resize in flight. Two buckets
// bounds the added tail latency to a couple of bucket moves while still
// guaranteeing forward progress proportional to write traffic; the
// table's background sweeper handles the idle-shard case.
const migrateBatchPerOp = 2

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

	// txn is the cuckootxn layer (internal/txn): per-key version/lock
	// stripes, atomic verbs, OCC transactions, and split counters. Every
	// mutation of the shards — including plain SET/DEL, TTL expiry,
	// eviction, and migration removal — runs under the key's stripe so
	// the version bump invalidates concurrent transactional read sets.
	txn *txn.Store
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
// stop-the-world rehash.
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
	}
	initial := slotsPerShard / growInitialDivisor
	if initial < 64 {
		initial = slotsPerShard
	}
	for i := range c.shards {
		t, err := generic.NewKeyed(generic.Config{
			InitialCapacity: initial,
			MaxCapacity:     slotsPerShard,
			// The server drives migration itself (driveMigration) so the
			// batch work lands inside the request's span as StageMigrate;
			// the table's background sweeper stays on for idle shards.
			MigrateBatch: -1,
			OnGrowEvent:  c.growEventFunc(i),
		}, item.key)
		if err != nil {
			return nil, err
		}
		c.shards[i] = &shard{table: t}
	}
	c.txn = txn.New(cacheKV{c}, txn.Config{
		// OCC read sets observe the shard's migration epoch so a commit
		// never validates across an incremental-resize generation change.
		Epoch: func(key string) uint64 {
			return c.shards[c.shardFor(key)].table.MigrationEpoch()
		},
	})
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

// driveMigration advances an in-flight incremental resize on shard si by
// a bounded batch, attributing the work to sp as StageMigrate. Mutating
// verbs call this so migration progress scales with write traffic; the
// Growing check is one atomic load, so the common no-grow case costs
// nothing.
//
//cuckoo:coldpath migration work exists only while a shard resize is in flight; bounded to migrateBatchPerOp buckets
func (c *Cache) driveMigration(si int, sp *obs.Span) {
	t := c.shards[si].table
	if !t.Growing() {
		return
	}
	t0 := sp.Begin()
	t.MigrateBatch(migrateBatchPerOp)
	sp.End(obs.StageMigrate, t0)
}

// nextVersion issues the next write version: wall-clock nanoseconds,
// bumped past the previous issue when the clock stalls or steps back.
// Lock-free (CAS loop), so it is legal under a key stripe.
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

// cacheKV adapts the sharded cuckoo tables to txn.KV. Its methods do raw
// table operations only — no eviction, no stripe management — because the
// txn layer calls them while already holding the key's stripe.
type cacheKV struct{ c *Cache }

func (k cacheKV) Load(key string) (string, bool) {
	it, ok := k.c.shards[k.c.shardFor(key)].table.Get(key)
	if !ok || it.expiredNow() {
		return "", false
	}
	return it.val(), true
}

func (k cacheKV) Store(key, val string, expireAt int64, keepTTL bool) error {
	sh := k.c.shards[k.c.shardFor(key)]
	if keepTTL {
		// Counter updates inherit the entry's current expiry; a fresh
		// counter never expires until a SETEX says otherwise.
		expireAt = 0
		if cur, ok := sh.table.Get(key); ok && !cur.expiredNow() {
			expireAt = cur.expireAt()
		}
	}
	return k.c.store(sh, newItem(k.c.nextVersion(), expireAt, key, val), false)
}

func (k cacheKV) Delete(key string) bool {
	return k.c.remove(k.c.shards[k.c.shardFor(key)], key)
}

// store is the one table write. Every item that lands in a shard — a
// client SET, a counter fold, a CAS swap, a transaction commit, a
// mirrored, restored or handed-off record — is put here with the key's
// stripe held, in a single probe. Its two callers build the item under
// that stripe and so decide its version: a local write is issued the next
// one (nextVersion) and is mirrored to the key's alternate node here; a
// write from a peer keeps its origin version and is never re-mirrored
// (that is what stops a mirrored write bouncing between the pair).
// Because every local item is versioned and stored under the stripe,
// per-key versions are monotonic and the mirror log sees writes in stripe
// order. The version is also the item's age when a full shard picks a
// victim (evictFor).
func (c *Cache) store(sh *shard, it item, fromPeer bool) error {
	if err := sh.table.Upsert(it.key(), it); err != nil {
		// ErrFull: the caller must evict outside the stripe and retry —
		// deleting victims here would mutate other keys' entries without
		// bumping their stripe versions.
		return errShardFull
	}
	if !fromPeer {
		c.replEnqueue(it.key(), it)
	}
	return nil
}

// remove deletes key's entry on behalf of a client (DEL, a committed
// transactional delete) and mirrors the delete as a versioned tombstone.
// Expiry, eviction and migration removals do not come through here: each
// replica holds the same absolute expireAt and lapses on its own. Caller
// holds key's stripe.
func (c *Cache) remove(sh *shard, key string) bool {
	ok := sh.table.Delete(key)
	if ok {
		c.replEnqueue(key, item{})
	}
	return ok
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
	c.wrote(si, it.key(), sp)
	return it.ver(), nil
}

// put builds the item for key=val under key's stripe and stores it, with
// eviction on a full shard; it returns the item stored. A local write is
// issued its version there. A put from a peer (REPLSET, snapshot restore,
// HANDOFF load) carries its origin version ver and is last-writer-wins:
// unless ver is newer than the local copy's it stores nothing and reports
// errStaleReplica. The item is built once: an attempt sent away to evict
// comes back with the item it built, which is still key's newest write if
// nobody held the stripe in between (txn.Store.WithLockBytes).
func (c *Cache) put(si int, key, val []byte, expireAt int64, ver uint64, fromPeer bool, sp *obs.Span) (it item, err error) {
	sh := c.shards[si]
	builtIn := txn.NoHold // the stripe hold it was built in
	err = c.evicting(si, key, sp, func() (serr error) {
		c.txn.WithLockBytes(key, sp, func(hold uint64) {
			if fromPeer {
				if cur, ok := generic.GetBytes(sh.table, key); ok && cur.ver() >= ver {
					serr = errStaleReplica // the local copy is newer, or this is a redelivery
					return
				}
			}
			t0 := sp.Begin()
			if it.isZero() || hold != builtIn+1 {
				if !fromPeer {
					ver = c.nextVersion()
				}
				it = newItem(ver, expireAt, key, val)
			}
			builtIn = hold
			serr = c.store(sh, it, fromPeer)
			sp.End(obs.StageProbe, t0)
		})
		return serr
	})
	return it, err
}

// evicting is the one evict-and-retry loop: run attempt (which stores
// key, taking its stripe itself); while it reports a full shard, evict
// one of key's bucket neighbours outside the stripe and retry. The slot
// freed is one the retry's first probe sees, so one eviction admits one
// key and further rounds only make up for a slot lost to a concurrent
// insert.
func (c *Cache) evicting(si int, key []byte, sp *obs.Span, attempt func() error) error {
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

// wrote is the one post-write step: every acknowledged client-visible
// mutation of key — whatever the verb, alone or inside EXEC — passes
// through here once it has applied. It kills any outstanding fill lease
// on the key, so an in-flight SETL holding a now-stale token loses its
// ValidateRelease, and advances an in-flight resize of the key's shard
// so migration progress scales with write traffic.
func (c *Cache) wrote(si int, key string, sp *obs.Span) {
	c.leaseInvalidate(key)
	c.driveMigration(si, sp)
}

// leaseInvalidate drops key's outstanding fill lease, if any. Gated on
// one atomic load: the write path pays nothing when no leases are
// outstanding anywhere.
func (c *Cache) leaseInvalidate(key string) {
	if c.leases.Active() > 0 {
		c.leases.Invalidate(key)
	}
}

// Incr atomically adds delta to the counter at key (missing keys count
// from zero), evicting on a full shard like SET. hint spreads split-mode
// updates across delta shards; pass a stable per-connection value. The
// new count is intentionally not returned — see txn.Store.Incr.
func (c *Cache) Incr(key string, delta int64, hint uint64, sp *obs.Span) error {
	if f := c.failOp; f != nil {
		if err := f(opIncr.String(), key); err != nil {
			return err
		}
	}
	return c.commute(key, sp, func() error { return c.txn.Incr(key, delta, hint, sp) })
}

// MaxUpdate atomically raises the counter at key to n if larger.
func (c *Cache) MaxUpdate(key string, n int64, hint uint64, sp *obs.Span) error {
	return c.commute(key, sp, func() error { return c.txn.MaxUpdate(key, n, hint, sp) })
}

// commute is the shared tail of the counter verbs.
func (c *Cache) commute(key string, sp *obs.Span, apply func() error) error {
	si := c.shardFor(key)
	err := c.evicting(si, []byte(key), sp, apply)
	if err == nil {
		c.stats.count(si, statIncrs)
		c.wrote(si, key, sp)
	}
	return err
}

// CAS replaces key's value only if it currently equals old. A store on
// an existing key consumes no new slot, so no eviction loop is needed.
func (c *Cache) CAS(key, old, newVal string, sp *obs.Span) (txn.CASResult, error) {
	si := c.shardFor(key)
	c.stats.count(si, statCAS)
	res, err := c.txn.CAS(key, old, newVal, sp)
	if err == nil && res == txn.CASStored {
		c.wrote(si, key, sp)
	}
	return res, err
}

// Exec runs a MULTI/EXEC transaction, attributing OCC retries to sp as
// StageTxnRetry. A write that lands on a full shard cannot evict at
// commit time (the commit holds the transaction's stripes; deleting a
// victim there would bump other keys' versions mid-validation), and the
// whole transaction cannot be re-run after a partial apply — so
// full-shard failures are repaired afterwards through the evict-and-retry
// loop instead.
func (c *Cache) Exec(ops []txn.Op, sp *obs.Span) []txn.Result {
	res, _ := c.txn.Exec(ops, sp)
	c.repairFullWrites(ops, res)
	for i := range ops {
		// StatusOK on a non-GET op is exactly "this op changed its key".
		if ops[i].Kind != txn.OpGet && res[i].Status == txn.StatusOK {
			c.wrote(c.shardFor(ops[i].Key), ops[i].Key, sp)
		}
	}
	return res
}

// repairFullWrites re-applies transaction writes that failed at commit
// because their shard had no reachable free slot. Every op kind that can
// allocate a slot is safe to apply late: SET is blind (last writer wins)
// and INCR/MAXUPDATE are commutative, so an application just after the
// commit point is indistinguishable from the same op racing the
// transaction — and strictly better than the hard error it replaces.
// CAS only overwrites in place and GET/DEL never insert, so they cannot
// fail this way. When one key carries several buffered ops, the commit
// marked all of them failed and none applied, so re-running each in
// queue order rebuilds the same final value the transaction computed.
func (c *Cache) repairFullWrites(ops []txn.Op, res []txn.Result) {
	for i := range res {
		if res[i].Status != txn.StatusErr || res[i].Err != errShardFull.Error() {
			continue
		}
		op := &ops[i]
		si, key := c.shardFor(op.Key), []byte(op.Key)
		var err error
		switch op.Kind {
		case txn.OpSet:
			_, err = c.put(si, key, []byte(op.Val), op.ExpireAt, 0, false, nil)
		case txn.OpIncr:
			err = c.evicting(si, key, nil, func() error { return c.txn.Incr(op.Key, op.Delta, 0, nil) })
		case txn.OpMax:
			err = c.evicting(si, key, nil, func() error { return c.txn.MaxUpdate(op.Key, op.Delta, 0, nil) })
		default:
			continue
		}
		if err == nil {
			res[i] = txn.Result{Status: txn.StatusOK}
		} else {
			res[i] = txn.Result{Status: txn.StatusErr, Err: err.Error()}
		}
	}
}

// evictFor makes room for key in full shard si: it deletes, among the
// entries sharing key's two candidate buckets, an expired one if there
// is one and the oldest write otherwise (Kuszmaul's kick-out eviction,
// arXiv:1605.05236, with the hybrid-clock version as the age). Choosing
// among at most 2·B entries is a sample of the shard, not its global
// oldest, which is what buys deleting the eviction order altogether. The
// delete runs under the victim's stripe — never the inserting key's — so
// the victim's version bump is honest and no two stripes are ever held.
//
//cuckoo:coldpath eviction runs only when a shard is full; the documented admission slow path
func (c *Cache) evictFor(si int, key []byte) {
	s := c.shards[si]
	now := time.Now().UnixNano()
	victim, ok := s.table.Oldest(string(key), func(a, b item) bool { return a.olderThan(b, now) })
	if !ok {
		return
	}
	removed := false
	c.txn.WithLock(victim, nil, func() { removed = s.table.Delete(victim) })
	if removed {
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
	c.txn.ReconcileKeyBytes(key)
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
		//lint:allow cuckoovet:allocfree lazy expiry of a dead entry is rare and the deletion needs an owned key
		c.expireKey(si, string(key))
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
		c.expireKey(si, key)
		return 0, false
	}
	return d, true
}

// Delete removes key, reporting whether it was present and live; lock
// wait and the removal probe are attributed to sp.
func (c *Cache) Delete(key string, sp *obs.Span) bool {
	si := c.shardFor(key)
	s := c.shards[si]
	c.stats.count(si, statDels)
	ok := false
	c.txn.WithLock(key, sp, func() {
		e, found := s.table.Get(key)
		switch {
		case !found:
		case e.expiredNow():
			// An expired-but-unswept entry must look deleted-as-miss,
			// not OK.
			if s.table.Delete(key) {
				c.stats.count(si, statExpired)
			}
		default:
			ok = c.remove(s, key)
		}
	})
	if ok {
		c.wrote(si, key, sp)
	}
	return ok
}

// expireKey removes an entry observed to be expired, re-checking under
// the key's stripe so a concurrent re-SET of the same key is never
// deleted (the re-SET holds the same stripe). It reports whether an
// entry was actually removed.
//
//cuckoo:coldpath lazy expiry fires once per dead entry observed; never on the live-hit path
func (c *Cache) expireKey(si int, key string) bool {
	s := c.shards[si]
	removed := false
	c.txn.WithLock(key, nil, func() {
		if e, ok := s.table.Get(key); ok && e.expiredNow() {
			removed = s.table.Delete(key)
		}
	})
	if removed {
		c.stats.count(si, statExpired)
	}
	return removed
}
