package htm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cuckoohash/internal/hugepage"
)

func yield() { runtime.Gosched() }

// lineLockBit marks a line's version word as write-locked by some
// transaction.
const lineLockBit = uint64(1) << 63

// Config sets the capacity limits of the emulated transactional hardware.
type Config struct {
	// ReadLines is the maximum number of distinct lines a transaction may
	// read before aborting with AbortCapacity. Haswell tracks the read-set
	// in the 32 KB L1 D-cache: 512 lines.
	ReadLines int
	// WriteLines is the maximum number of distinct lines a transaction may
	// write. Haswell buffers transactional stores in the L1 with an
	// effective budget of about 16 KB: 256 lines.
	WriteLines int
}

// DefaultConfig mirrors the Haswell budgets discussed in §5.
func DefaultConfig() Config {
	return Config{ReadLines: 512, WriteLines: 256}
}

// Stats is a snapshot of a region's transaction counters.
type Stats struct {
	Commits        uint64 // speculative transactions that committed
	Aborts         uint64 // total aborts (all causes)
	ConflictAborts uint64 // aborts with AbortConflict
	CapacityAborts uint64 // aborts with AbortCapacity
	ExplicitAborts uint64 // aborts with AbortExplicit (incl. lock-busy)
	LockBusyAborts uint64 // aborts with AbortLockBusy (fallback lock held at start)
	RetryHints     uint64 // aborts whose status carried the retry bit
	Fallbacks      uint64 // executions that took the fallback lock
	ReadLines      uint64 // total read-set lines over committed transactions
	WriteLines     uint64 // total write-set lines over committed transactions
}

// AvgFootprint returns the mean (read, write) line footprint of committed
// transactions — the quantity §5 is about: short transactions rarely abort.
func (s Stats) AvgFootprint() (read, write float64) {
	if s.Commits == 0 {
		return 0, 0
	}
	return float64(s.ReadLines) / float64(s.Commits), float64(s.WriteLines) / float64(s.Commits)
}

// AbortRate returns aborts / (commits + aborts), the metric Intel PCM
// reports and §2.3 quotes (">80% for all three hash tables with 8
// concurrent writers").
func (s Stats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// Region is a transactional memory arena plus its conflict-detection
// metadata. All state a data structure wants covered by transactions must
// live in the arena returned by Words.
type Region struct {
	mem      []uint64
	versions []atomic.Uint64 // one versioned lock word per line

	fallback atomic.Uint64 // elision fallback lock; versioned like a line
	active   atomic.Int64  // in-flight speculative transactions
	clock    atomic.Uint64 // txn id source (owner identification)
	cfg      Config
	txPool   sync.Pool
	counters [64]counterShard // sharded by txn id: stats updates must not
	// become the shared-cache-line hotspot principle P1 warns about
}

// counterShard groups one shard of the region counters, padded so
// neighbouring shards never share a cache line.
type counterShard struct {
	commits      atomic.Uint64
	aborts       atomic.Uint64
	conflicts    atomic.Uint64
	capacityAbrt atomic.Uint64
	explicitAbrt atomic.Uint64
	lockBusyAbrt atomic.Uint64
	retryHints   atomic.Uint64
	fallbacks    atomic.Uint64
	readLines    atomic.Uint64
	writeLines   atomic.Uint64
	_            [48]byte
}

// NewRegion creates a region holding words 8-byte words of transactional
// memory with the given capacity configuration.
func NewRegion(words int, cfg Config) *Region {
	if words <= 0 {
		panic("htm: region size must be positive")
	}
	if cfg.ReadLines <= 0 || cfg.WriteLines <= 0 {
		panic("htm: capacity limits must be positive")
	}
	lines := (words + wordsPerLine - 1) / wordsPerLine
	r := &Region{
		mem:      hugepage.Make[uint64](uint64(words)),
		versions: hugepage.Make[atomic.Uint64](uint64(lines)),
		cfg:      cfg,
	}
	r.txPool.New = func() any {
		return &Txn{
			r:          r,
			lineStamps: make([]uint32, lines),
			readSet:    make([]readEntry, 0, cfg.ReadLines),
			writeSet:   make([]writeEntry, 0, cfg.WriteLines),
			undo:       make([]undoEntry, 0, 4*cfg.WriteLines),
		}
	}
	return r
}

// Words returns the arena. Direct access is safe only when the caller holds
// the fallback lock, runs single-threaded, or otherwise synchronizes
// externally (e.g. the table's initial fill phase).
func (r *Region) Words() []uint64 { return r.mem }

// LoadDirect reads a word outside any transaction, with no conflict
// tracking. This is how non-transactional code observes transactional
// memory — always permitted by real HTM (it aborts the conflicting
// transaction; here the transaction's later validation fails instead).
// Tables use it for the unlocked cuckoo-path search phase.
func (r *Region) LoadDirect(addr uint32) uint64 {
	return atomic.LoadUint64(&r.mem[addr])
}

// StoreDirect writes a word outside any transaction. Callers must hold the
// fallback lock or otherwise exclude concurrent transactions (bulk load).
func (r *Region) StoreDirect(addr uint32, val uint64) {
	atomic.StoreUint64(&r.mem[addr], val)
}

// Lines returns the number of conflict-detection lines in the region.
func (r *Region) Lines() int { return len(r.versions) }

// Stats returns a snapshot of the region's counters.
func (r *Region) Stats() Stats {
	var s Stats
	for i := range r.counters {
		c := &r.counters[i]
		s.Commits += c.commits.Load()
		s.Aborts += c.aborts.Load()
		s.ConflictAborts += c.conflicts.Load()
		s.CapacityAborts += c.capacityAbrt.Load()
		s.ExplicitAborts += c.explicitAbrt.Load()
		s.LockBusyAborts += c.lockBusyAbrt.Load()
		s.RetryHints += c.retryHints.Load()
		s.Fallbacks += c.fallbacks.Load()
		s.ReadLines += c.readLines.Load()
		s.WriteLines += c.writeLines.Load()
	}
	return s
}

// ResetStats zeroes the region's counters.
func (r *Region) ResetStats() {
	for i := range r.counters {
		c := &r.counters[i]
		c.commits.Store(0)
		c.aborts.Store(0)
		c.conflicts.Store(0)
		c.capacityAbrt.Store(0)
		c.explicitAbrt.Store(0)
		c.lockBusyAbrt.Store(0)
		c.retryHints.Store(0)
		c.fallbacks.Store(0)
		c.readLines.Store(0)
		c.writeLines.Store(0)
	}
}

type readEntry struct {
	line    uint32
	version uint64
}

type writeEntry struct {
	line    uint32
	version uint64 // version before we locked the line
}

type undoEntry struct {
	addr uint32
	old  uint64
}

// Txn is one transactional execution context. A Txn is valid only inside
// the function passed to Run/RunElided; data access goes through Load and
// Store with word addresses into the region's arena.
//
// In speculative mode a Txn unwinds with an internal panic on abort; the
// Run wrappers recover it. In fallback mode (serialized under the fallback
// lock) Load and Store degenerate to direct memory access.
type Txn struct {
	r          *Region
	epoch      uint32
	lineStamps []uint32 // lineStamps[l] encodes read/write membership for epoch
	readSet    []readEntry
	writeSet   []writeEntry
	undo       []undoEntry
	id         uint64 // unique per activation; not currently exposed
	fallback   bool   // true when running under the fallback lock
}

// Stamp encoding: for line l, lineStamps[l] == epoch*2 means "in read set",
// epoch*2+1 means "in write set" (a written line is always also readable).
// Any other value means "not accessed this transaction". The epoch advances
// by one per activation, so resets are O(1); a wraparound (every 2^31
// activations) triggers a full clear.

func (t *Txn) begin(fallback bool) {
	t.fallback = fallback
	t.epoch++
	if t.epoch >= 1<<30 {
		clear(t.lineStamps)
		t.epoch = 1
	}
	t.readSet = t.readSet[:0]
	t.writeSet = t.writeSet[:0]
	t.undo = t.undo[:0]
	t.id = t.r.clock.Add(1)
}

func (t *Txn) inRead(line uint32) bool {
	s := t.lineStamps[line]
	return s == t.epoch*2 || s == t.epoch*2+1
}

func (t *Txn) inWrite(line uint32) bool {
	return t.lineStamps[line] == t.epoch*2+1
}

// abort unwinds the transaction with the given cause.
func (t *Txn) abort(code AbortCode) {
	panic(txAbort{code: code})
}

// Abort explicitly aborts the transaction (the XABORT instruction). The
// retry bit is left clear, matching XABORT semantics.
func (t *Txn) Abort() {
	if t.fallback {
		panic("htm: Abort called under fallback lock")
	}
	t.abort(AbortExplicit)
}

// Load reads the word at addr transactionally.
func (t *Txn) Load(addr uint32) uint64 {
	if t.fallback {
		// Atomic so fallback execution does not race with the atomic
		// accesses of speculative transactions it is about to kill.
		return atomic.LoadUint64(&t.r.mem[addr])
	}
	line := addr >> lineShift
	if !t.inRead(line) {
		t.trackRead(line)
	}
	return atomic.LoadUint64(&t.r.mem[addr])
}

func (t *Txn) trackRead(line uint32) {
	v := t.r.versions[line].Load()
	if v&lineLockBit != 0 {
		// Locked by another transaction (if it were ours the stamp would
		// have said so): a write->read conflict. Real hardware aborts the
		// requester or the holder; we abort the requester with the retry
		// hint set.
		t.abort(AbortConflict | AbortRetry)
	}
	if len(t.readSet) >= t.r.cfg.ReadLines {
		t.abort(AbortCapacity)
	}
	t.readSet = append(t.readSet, readEntry{line: line, version: v})
	t.lineStamps[line] = t.epoch * 2
}

// Store writes the word at addr transactionally. The previous value is
// preserved in the undo log so an abort leaves memory untouched.
func (t *Txn) Store(addr uint32, val uint64) {
	if t.fallback {
		atomic.StoreUint64(&t.r.mem[addr], val)
		return
	}
	line := addr >> lineShift
	if !t.inWrite(line) {
		t.trackWrite(line)
	}
	t.undo = append(t.undo, undoEntry{addr: addr, old: atomic.LoadUint64(&t.r.mem[addr])})
	atomic.StoreUint64(&t.r.mem[addr], val)
}

func (t *Txn) trackWrite(line uint32) {
	if len(t.writeSet) >= t.r.cfg.WriteLines {
		t.abort(AbortCapacity)
	}
	ver := &t.r.versions[line]
	for {
		v := ver.Load()
		if v&lineLockBit != 0 {
			// Write->write conflict with another transaction.
			t.abort(AbortConflict | AbortRetry)
		}
		if t.inRead(line) {
			// Upgrade: the version must still be the one we read, or we
			// have already lost the race.
			if rv, ok := t.readVersionOf(line); !ok || rv != v {
				t.abort(AbortConflict | AbortRetry)
			}
		}
		if ver.CompareAndSwap(v, v|lineLockBit) {
			t.writeSet = append(t.writeSet, writeEntry{line: line, version: v})
			t.lineStamps[line] = t.epoch*2 + 1
			return
		}
	}
}

func (t *Txn) readVersionOf(line uint32) (uint64, bool) {
	for i := range t.readSet {
		if t.readSet[i].line == line {
			return t.readSet[i].version, true
		}
	}
	return 0, false
}

// commit validates the read set and publishes the write set. It must only
// be called in speculative mode.
func (t *Txn) commit() bool {
	for i := range t.readSet {
		e := &t.readSet[i]
		if e.line == fallbackLine {
			if t.r.fallback.Load() != e.version {
				t.rollback()
				return false
			}
			continue
		}
		if t.inWrite(e.line) {
			// We hold the line lock; the pre-lock version was checked at
			// upgrade time.
			continue
		}
		if t.r.versions[e.line].Load() != e.version {
			t.rollback()
			return false
		}
	}
	// Publish: bump every written line's version and release its lock. Any
	// concurrent reader of those lines will fail validation.
	for i := range t.writeSet {
		e := &t.writeSet[i]
		t.r.versions[e.line].Store((e.version + 2) &^ lineLockBit)
	}
	return true
}

// rollback undoes in-place writes and releases line locks, bumping versions
// so overlapping optimistic readers are forced to retry (they may have seen
// uncommitted values).
func (t *Txn) rollback() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		e := &t.undo[i]
		atomic.StoreUint64(&t.r.mem[e.addr], e.old)
	}
	for i := range t.writeSet {
		e := &t.writeSet[i]
		t.r.versions[e.line].Store((e.version + 2) &^ lineLockBit)
	}
}

// SubscribeFallback adds the fallback lock to the transaction's read set,
// aborting immediately if it is held. Elision wrappers call this first so
// that a fallback-lock acquisition conflicts with (and kills) every
// in-flight transaction, exactly the lock-subscription idiom of hardware
// lock elision.
func (t *Txn) SubscribeFallback() {
	if t.fallback {
		return
	}
	v := t.r.fallback.Load()
	if v&lineLockBit != 0 {
		t.abort(AbortExplicit | AbortLockBusy)
	}
	// Track it as a pseudo read-set entry with line == ^0.
	t.readSet = append(t.readSet, readEntry{line: fallbackLine, version: v})
}

// fallbackLine is the pseudo line index representing the fallback lock in
// read sets. The region never has 2^32-1 real lines; commit validates this
// entry against the fallback word instead of the line version table.
const fallbackLine = ^uint32(0)

// Run executes fn as a single speculative transaction with no retry policy
// and no fallback. It reports whether the transaction committed and, if not,
// the abort cause. It is the building block for the elision wrappers and is
// exported for tests and custom policies.
func (r *Region) Run(fn func(tx *Txn) error) (err error, committed bool, code AbortCode) {
	tx := r.txPool.Get().(*Txn)
	defer r.txPool.Put(tx)
	return r.runOnce(tx, fn)
}

func (r *Region) runOnce(tx *Txn, fn func(tx *Txn) error) (err error, committed bool, code AbortCode) {
	tx.begin(false)
	// Register as in-flight so a fallback-lock acquisition can wait for our
	// line locks (and potential rollback) to drain before writing directly.
	// Hardware aborts transactions instantly when the elided lock is taken;
	// software must quiesce them instead.
	r.active.Add(1)
	defer r.active.Add(-1)
	aborted := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				a, ok := p.(txAbort)
				if !ok {
					// A real panic from fn: roll back and re-panic so the
					// bug is not masked.
					tx.rollback()
					panic(p)
				}
				tx.rollback()
				aborted = true
				code = a.code
			}
		}()
		err = fn(tx)
	}()
	shard := &r.counters[tx.id&63]
	if aborted {
		shard.countAbort(code)
		return nil, false, code
	}
	if err != nil {
		// fn declined (e.g. key exists): commit its (possibly empty) writes
		// and surface the error; this mirrors a committed transaction whose
		// logical operation failed.
		if !tx.commit() {
			shard.countAbort(AbortConflict | AbortRetry)
			return nil, false, AbortConflict | AbortRetry
		}
		shard.countCommit(tx)
		return err, true, 0
	}
	if !tx.commit() {
		shard.countAbort(AbortConflict | AbortRetry)
		return nil, false, AbortConflict | AbortRetry
	}
	shard.countCommit(tx)
	return nil, true, 0
}

func (c *counterShard) countCommit(tx *Txn) {
	c.commits.Add(1)
	c.readLines.Add(uint64(len(tx.readSet)))
	c.writeLines.Add(uint64(len(tx.writeSet)))
}

func (c *counterShard) countAbort(code AbortCode) {
	c.aborts.Add(1)
	if code&AbortConflict != 0 {
		c.conflicts.Add(1)
	}
	if code&AbortCapacity != 0 {
		c.capacityAbrt.Add(1)
	}
	if code&AbortExplicit != 0 {
		c.explicitAbrt.Add(1)
	}
	if code&AbortLockBusy != 0 {
		c.lockBusyAbrt.Add(1)
	}
	if code&AbortRetry != 0 {
		c.retryHints.Add(1)
	}
}

// FallbackLocked reports whether the fallback lock is currently held.
func (r *Region) FallbackLocked() bool {
	return r.fallback.Load()&lineLockBit != 0
}

func (r *Region) lockFallback() {
	for spins := 0; ; spins++ {
		v := r.fallback.Load()
		if v&lineLockBit == 0 && r.fallback.CompareAndSwap(v, v|lineLockBit) {
			return
		}
		if spins >= 64 {
			yield()
			spins = 0
		}
	}
}

func (r *Region) unlockFallback() {
	v := r.fallback.Load()
	r.fallback.Store((v + 2) &^ lineLockBit)
}
