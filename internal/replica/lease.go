package replica

import (
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// Lease defaults. The TTL bounds how long a crashed filler can block a
// key (after it the next LEASE re-grants); the wait hint is what the
// server tells non-winning clients to sleep before retrying.
const (
	DefaultLeaseTTLNanos = 2_000_000_000 // 2s
	DefaultWaitHintMS    = 20
)

// leaseShards spreads the table over independently locked maps so a
// miss storm on many keys does not serialize on one mutex. Lease
// traffic only happens on misses, outside any key stripe, so a parking
// sync.Mutex is fine here.
const leaseShards = 16

type leaseState struct {
	token     uint64
	expiresAt int64
}

type leaseShard struct {
	mu sync.Mutex
	m  map[string]leaseState
}

// LeaseTable hands out per-key miss leases: the first client to miss a
// key wins a fill token, everyone else is told to wait briefly (or is
// served a stale copy by the caller). Any acknowledged mutation of the
// key invalidates its outstanding token, so a delayed fill can never
// overwrite fresher data through the lease path.
type LeaseTable struct {
	ttl      int64 // lease lifetime, nanoseconds
	waitMS   int64
	tokenSeq atomic.Uint64
	// active counts live leases so the write path can skip the table
	// entirely (one atomic load) when no leases are outstanding.
	active atomic.Int64
	shards [leaseShards]leaseShard
}

// NewLeaseTable builds a table. ttlNanos <= 0 selects the default.
func NewLeaseTable(ttlNanos int64) *LeaseTable {
	if ttlNanos <= 0 {
		ttlNanos = DefaultLeaseTTLNanos
	}
	t := &LeaseTable{ttl: ttlNanos, waitMS: DefaultWaitHintMS}
	for i := range t.shards {
		t.shards[i].m = make(map[string]leaseState)
	}
	return t
}

func (t *LeaseTable) shardFor(key string) *leaseShard {
	// FNV-1a over the key; shard count is a power of two.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &t.shards[h&(leaseShards-1)]
}

func (t *LeaseTable) nextToken(now int64) uint64 {
	seq := t.tokenSeq.Add(1)
	tok := seq ^ bits.RotateLeft64(uint64(now), 23)
	if tok == 0 {
		tok = 1
	}
	return tok
}

// Acquire asks for the fill lease on key at time now (unix nanos). If
// no live lease exists the caller wins: granted is true and token must
// be echoed back via SETL. Otherwise granted is false and waitMS is the
// retry hint for the caller.
func (t *LeaseTable) Acquire(key string, now int64) (token uint64, granted bool, waitMS int64) {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.m[key]; ok && st.expiresAt > now {
		return 0, false, t.waitMS
	} else if ok {
		// Expired lease (filler crashed or timed out): reclaim it.
		t.active.Add(-1)
	} else {
		// The table outlives the request: a new entry keeps a copy of the
		// key, never a substring of something larger that it would pin.
		key = strings.Clone(key)
	}
	tok := t.nextToken(now)
	sh.m[key] = leaseState{token: tok, expiresAt: now + t.ttl}
	t.active.Add(1)
	return tok, true, 0
}

// ValidateRelease atomically checks that token is the live lease for
// key and, if so, releases it. A false return means the fill lost: the
// lease expired, was re-granted, or was invalidated by a newer write.
func (t *LeaseTable) ValidateRelease(key string, token uint64, now int64) bool {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.m[key]
	if !ok {
		return false
	}
	delete(sh.m, key)
	t.active.Add(-1)
	return st.token == token && st.expiresAt > now
}

// Invalidate drops any outstanding lease on key, reporting whether one
// existed. The server calls this after every acknowledged mutation so an
// in-flight fill holding a now-stale token cannot publish through SETL.
func (t *LeaseTable) Invalidate(key string) bool {
	sh := t.shardFor(key)
	sh.mu.Lock()
	_, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
		t.active.Add(-1)
	}
	sh.mu.Unlock()
	return ok
}

// Active returns the number of outstanding leases. The write path reads
// it (one atomic load) to skip Invalidate entirely in the common case
// of no lease traffic.
func (t *LeaseTable) Active() int64 { return t.active.Load() }

// TTLMillis reports the lease lifetime in milliseconds — what a LEASE
// grant advertises on the wire so the winner knows its fill deadline.
func (t *LeaseTable) TTLMillis() int64 { return t.ttl / 1_000_000 }
