package client

// Cluster-aware client (docs/CLUSTER.md). A Cluster fronts a static ring
// of cuckood nodes with the same two-choice discipline the table applies
// to buckets: every key has a primary and an alternate node
// (internal/cluster derives both from one hash, like hashfn.TwoBuckets),
// reads fall through primary → alternate, and writes spill to the
// alternate when the primary is overloaded or unreachable. Each node gets
// its own Pool, so the fault-tolerance machinery — health-checked
// checkout, retries with budget, per-address circuit breaker — composes
// per node: one sick peer trips one breaker and the keyspace keeps
// flowing through the other candidates.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cuckoohash/internal/cluster"
	"cuckoohash/internal/obs"
)

// clientMigrateTimeout floors the deadline on a MIGRATE exchange: bulk
// key movement legitimately outlives the per-operation IO timeout tuned
// for single GETs.
const clientMigrateTimeout = 30 * time.Second

// ClusterInfo fetches the node's CLUSTER map (load figures and migration
// counters; see docs/PROTOCOL.md).
func (c *Conn) ClusterInfo() (map[string]string, error) { return c.info("CLUSTER", "CLUSTER ") }

// Migrate asks the connected node to move up to max keys (0 = unlimited)
// matching mode ("home" or "shed") to dest, under the given ring
// membership and placement seed, and returns how many keys moved. The
// exchange gets a deadline of at least clientMigrateTimeout because the
// server transfers the selected keys synchronously before answering.
func (c *Conn) Migrate(mode, dest, self string, seed uint64, max int, ring string) (int, error) {
	moved := 0
	err := c.exchange("MIGRATE", clientMigrateTimeout, func() {
		c.writeTrace()
		fmt.Fprintf(c.w, "MIGRATE %s %s %s %d %d %s\n", mode, dest, self, seed, max, ring)
	}, func() error {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		rest, ok := strings.CutPrefix(line, "MIGRATED ")
		if !ok {
			return c.unexpected(line)
		}
		moved, err = strconv.Atoi(rest)
		return err
	})
	return moved, err
}

// ClusterOptions configures a Cluster. Every zero value selects a usable
// default; Seed must match the one every other client, server, and
// cuckooctl invocation uses, or they will disagree about key placement.
type ClusterOptions struct {
	// Pool configures each node's connection pool (sizing, retries,
	// breaker). Applied identically to every node.
	Pool Options
	// SpillWatermark is the load fraction (entries/capacity, as last
	// probed) at which writes start spilling to the key's alternate node.
	// Default 0.9.
	SpillWatermark float64
	// SkewTarget is the relative load skew — (max-mean)/mean, see
	// cluster.Skew — below which Rebalance declares convergence.
	// Default 0.25.
	SkewTarget float64
	// Seed fixes the ring placement hash.
	Seed uint64
	// HotCache enables the client-side hot-key cache: the cluster polls
	// the servers' HOTKEYS top-K every HotRefresh and serves repeat
	// reads of those keys locally for up to HotCacheTTL, with writes
	// through this Cluster invalidating their key immediately.
	HotCache bool
	// HotCacheTTL bounds the staleness of locally served hot values
	// (default 100ms).
	HotCacheTTL time.Duration
	// HotRefresh is the HOTKEYS polling interval (default 1s).
	HotRefresh time.Duration
	// HotKeyCount is how many hot keys to track (default 16).
	HotKeyCount int
}

func (o *ClusterOptions) setDefaults() {
	if o.SpillWatermark <= 0 {
		o.SpillWatermark = 0.9
	}
	if o.SkewTarget <= 0 {
		o.SkewTarget = 0.25
	}
	if o.HotCacheTTL <= 0 {
		o.HotCacheTTL = 100 * time.Millisecond
	}
	if o.HotRefresh <= 0 {
		o.HotRefresh = time.Second
	}
	if o.HotKeyCount <= 0 {
		o.HotKeyCount = 16
	}
}

// clusterNode is one ring member: its pool plus the client-side view of
// its health and the spill/fallback traffic it attracted.
type clusterNode struct {
	addr string
	pool *Pool

	loadBits   atomic.Uint64 // last probed load fraction, as Float64bits
	entries    atomic.Uint64 // last probed entry count
	capacity   atomic.Uint64 // last probed slot capacity
	probeFails atomic.Uint64 // CLUSTER probes that failed
	spills     atomic.Uint64 // writes redirected to this node as the spill target
	altReads   atomic.Uint64 // reads that fell through to this node as alternate
	altHits    atomic.Uint64 // fallthrough reads that hit

	_ [48]byte // pad to a cache-line multiple: two-choice ops touch two nodes' counters concurrently (P1)
}

func (n *clusterNode) load() float64 {
	return math.Float64frombits(n.loadBits.Load())
}

// Cluster is a sharded client over a static two-choice ring of cuckood
// nodes. All methods are safe for concurrent use; the per-node Pools do
// the synchronization.
type Cluster struct {
	ring  *cluster.Ring
	nodes []*clusterNode
	opt   ClusterOptions

	// verMem is the monotonic-reads floor (client/replica.go); hot is
	// the hot-key cache, nil unless ClusterOptions.HotCache is set.
	verMem *verMemory
	hot    *hotCache

	hotStop   chan struct{}
	hotWG     sync.WaitGroup
	closeOnce sync.Once

	altSpread     atomic.Uint64 // round-robin cursor for hot-key read spreading
	staleRejected atomic.Uint64 // replica reads rejected by the version floor
}

// NewCluster builds a cluster client over addrs. The address list and
// opt.Seed define key placement, so they must be identical (same order)
// across every participant.
func NewCluster(addrs []string, opt ClusterOptions) (*Cluster, error) {
	opt.setDefaults()
	ring, err := cluster.New(addrs, opt.Seed)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{ring: ring, opt: opt, verMem: newVerMemory(verMemoryCap)}
	for _, addr := range ring.Nodes() {
		cl.nodes = append(cl.nodes, &clusterNode{
			addr: addr,
			pool: NewPoolWith(addr, opt.Pool),
		})
	}
	if opt.HotCache {
		cl.hot = newHotCache(opt.HotCacheTTL)
		cl.hotStop = make(chan struct{})
		cl.hotWG.Add(1)
		go cl.hotRefresher()
	}
	return cl, nil
}

// Ring returns the placement ring (shared, read-only).
func (cl *Cluster) Ring() *cluster.Ring { return cl.ring }

// Close stops the hot-key refresher and closes every node's pool.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		if cl.hotStop != nil {
			close(cl.hotStop)
			cl.hotWG.Wait()
		}
	})
	for _, n := range cl.nodes {
		n.pool.Close()
	}
}

// candidates returns the key's primary and alternate nodes.
func (cl *Cluster) candidates(key string) (*clusterNode, *clusterNode) {
	pi, ai := cl.ring.Candidates(key)
	return cl.nodes[pi], cl.nodes[ai]
}

// Set stores key=val on the key's primary node, spilling to the alternate
// when the primary is overloaded (probed load at or past the spill
// watermark, and the alternate less loaded) or the write fails there —
// the node-level analogue of a cuckoo insert placing an item in its
// second bucket. See SetWhere for which node acked.
func (cl *Cluster) Set(key, val string, ttl time.Duration) error {
	_, err := cl.write(key, val, ttl, "")
	return err
}

// SetWhere is Set, also reporting the address of the node that
// acknowledged the write (chaos tests audit acked writes per node).
func (cl *Cluster) SetWhere(key, val string, ttl time.Duration) (string, error) {
	return cl.write(key, val, ttl, "")
}

// write is the one routed write, behind Set, SetWhere and SetTraced
// (trace "" = untraced). Any locally cached hot value is invalidated
// first; the write goes out as SETV so the acked version word lands in the
// version memory — any replica copy this client later reads must be at
// least this fresh (client/replica.go). It returns the address of the
// node that acknowledged.
func (cl *Cluster) write(key, val string, ttl time.Duration, trace string) (string, error) {
	if cl.hot != nil {
		cl.hot.invalidate(key)
	}
	first, second := cl.candidates(key)
	spill := first != second && cl.spillWanted(first, second)
	if spill {
		first, second = second, first
	}
	var firstErr error
	for i, n := range [2]*clusterNode{first, second} {
		if i == 1 && n == first {
			break
		}
		// Any failure justifies the second choice: transport errors and
		// open breakers obviously, and server-side errors too — a busy or
		// full first choice says nothing about the other node's capacity.
		if i == 1 || spill {
			n.spills.Add(1)
		}
		ver, err := n.pool.setV(key, val, ttl, trace)
		if err == nil {
			cl.verMem.observe(key, ver)
			return n.addr, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return "", firstErr
}

// spillWanted reports whether a write to pri should go to alt instead,
// from the last probed loads. Unprobed nodes report load 0 and never
// trigger a spill.
func (cl *Cluster) spillWanted(pri, alt *clusterNode) bool {
	pl := pri.load()
	return pl >= cl.opt.SpillWatermark && alt.load() < pl
}

// Get fetches key, reading the primary first and falling through to the
// alternate on a miss or failure — the read path mirror of the write
// spill, same as a table lookup probing both candidate buckets. With
// replication the fallthrough gains teeth: both candidates hold a copy,
// reads go out as GETV, and every hit is admitted against the client's
// per-key version floor so a lagging replica can never serve back data
// older than a write (or read) this client already observed. Hot keys
// (per the servers' HOTKEYS ranking) are additionally served from the
// local hot cache and spread across both candidates.
func (cl *Cluster) Get(key string) (string, bool, error) { return cl.read(key, "") }

// read is the one routed read, behind Get and GetTraced (trace "" =
// untraced): hot cache, then the candidates in order, every value on
// either path passing admitRead before it is returned.
func (cl *Cluster) read(key, trace string) (string, bool, error) {
	if cl.hot != nil {
		if v, ver, ok := cl.hot.get(key, time.Now()); ok && cl.admitRead(key, ver) {
			return v, true, nil
		}
	}
	first, second := cl.candidates(key)
	if cl.hot != nil && first != second && cl.hot.isHot(key) && cl.altSpread.Add(1)&1 == 1 {
		// Read spreading: a hot key's copies live on both candidates,
		// so alternate the node a cache miss lands on.
		first, second = second, first
	}
	var firstErr error
	for i, n := range [2]*clusterNode{first, second} {
		if i == 1 {
			if n == first {
				break
			}
			n.altReads.Add(1)
		}
		v, ver, ok, err := n.pool.getV(key, trace)
		if ok && err == nil && cl.admitRead(key, ver) {
			if i == 1 {
				n.altHits.Add(1)
			}
			cl.noteRead(key, v, ver)
			return v, true, nil
		}
		// Prefer reporting the first node's error if both paths failed. A
		// hit rejected by the version floor reports a miss: serving
		// nothing beats serving a value older than one already seen.
		if firstErr == nil {
			firstErr = err
		}
	}
	return "", false, firstErr
}

// Del removes key from both candidate nodes (a key can live on either
// after spills and migrations) and reports whether any copy existed.
func (cl *Cluster) Del(key string) (bool, error) {
	if cl.hot != nil {
		cl.hot.invalidate(key)
	}
	pri, alt := cl.candidates(key)
	found, err := pri.pool.Del(key)
	if alt == pri {
		return found, err
	}
	found2, err2 := alt.pool.Del(key)
	if err == nil {
		err = err2
	}
	return found || found2, err
}

// ErrCrossNodeTxn is returned by Cluster.ExecTxn when the transaction's
// keys do not share a primary node: MULTI…EXEC is single-node atomicity,
// and silently splitting it would break exactly the guarantee it exists
// to give.
var ErrCrossNodeTxn = errors.New("client: transaction keys span multiple primary nodes")

// Incr routes a counter update to the key's primary node, never the
// alternate: unlike SET, a counter must have a single authoritative home,
// because deltas applied to two copies can never be merged back. It is
// also never retried (see Pool.Incr).
func (cl *Cluster) Incr(key string, delta int64) error {
	pri, _ := cl.candidates(key)
	return pri.pool.Incr(key, delta)
}

// MaxUpdate routes a monotonic-max update to the key's primary node
// (same single-home rule as Incr).
func (cl *Cluster) MaxUpdate(key string, val int64) error {
	pri, _ := cl.candidates(key)
	return pri.pool.MaxUpdate(key, val)
}

// CAS routes a compare-and-set to the key's primary node. A key whose
// live copy sits on the alternate (after a spill) reports a miss here
// rather than racing two copies.
func (cl *Cluster) CAS(key, old, newVal string) (stored, found bool, err error) {
	pri, _ := cl.candidates(key)
	return pri.pool.CAS(key, old, newVal)
}

// ExecTxn runs a MULTI…EXEC transaction on the single node that is
// primary for every key it touches. Transactions spanning keys with
// different primaries fail with ErrCrossNodeTxn before anything is sent —
// the caller can shard the work or hash-tag its keys onto one node.
func (cl *Cluster) ExecTxn(t *Txn) ([]Reply, error) {
	if err := t.Err(); err != nil {
		return nil, err
	}
	keys := t.Keys()
	if len(keys) == 0 {
		return nil, nil
	}
	pi, _ := cl.ring.Candidates(keys[0])
	for _, k := range keys[1:] {
		if p, _ := cl.ring.Candidates(k); p != pi {
			return nil, fmt.Errorf("%w (%q and %q)", ErrCrossNodeTxn, keys[0], k)
		}
	}
	return cl.nodes[pi].pool.ExecTxn(t)
}

// NodeStatus is one node's view in Status: its CLUSTER figures plus the
// client-side spill/fallback counters. Err is set (and the numeric
// fields zero) when the probe failed.
type NodeStatus struct {
	Addr          string
	Entries       uint64
	Capacity      uint64
	Load          float64
	MigratedIn    uint64
	MigratedOut   uint64
	Handoffs      uint64
	MigrateFails  uint64
	ClientSpills  uint64
	ClientAltHits uint64
	BreakerState  BreakerState
	Err           error
}

// Probe refreshes every node's load figures via the CLUSTER verb. It
// returns the first probe error, after probing all nodes regardless.
func (cl *Cluster) Probe() error {
	var firstErr error
	for _, n := range cl.nodes {
		if _, err := cl.probeNode(n); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("probe %s: %w", n.addr, err)
		}
	}
	return firstErr
}

// probeNode runs one CLUSTER exchange through n's pool and refreshes the
// client-side view of n's load from it.
func (cl *Cluster) probeNode(n *clusterNode) (map[string]string, error) {
	info, err := call(n.pool, false, "", (*Conn).ClusterInfo)
	if err != nil {
		n.probeFails.Add(1)
		return nil, err
	}
	n.entries.Store(infoUint(info, "entries"))
	n.capacity.Store(infoUint(info, "capacity"))
	load, _ := strconv.ParseFloat(info["load"], 64)
	n.loadBits.Store(math.Float64bits(load))
	return info, nil
}

// infoUint reads one numeric CLUSTER field, 0 when absent or malformed.
func infoUint(info map[string]string, name string) uint64 {
	v, _ := strconv.ParseUint(info[name], 10, 64)
	return v
}

// migrate runs one MIGRATE exchange on src's pool against the given ring.
func (cl *Cluster) migrate(src *clusterNode, mode, dest string, max int, ring *cluster.Ring) (int, error) {
	return call(src.pool, false, "", func(c *Conn) (int, error) {
		return c.Migrate(mode, dest, src.addr, ring.Seed(), max, ring.CSV())
	})
}

// Status probes every node and returns the merged per-node view.
func (cl *Cluster) Status() []NodeStatus {
	out := make([]NodeStatus, 0, len(cl.nodes))
	for _, n := range cl.nodes {
		st := NodeStatus{Addr: n.addr}
		info, err := cl.probeNode(n)
		if err != nil {
			st.Err = err
		} else {
			st.Entries = infoUint(info, "entries")
			st.Capacity = infoUint(info, "capacity")
			st.Load, _ = strconv.ParseFloat(info["load"], 64)
			st.MigratedIn = infoUint(info, "migrated_in")
			st.MigratedOut = infoUint(info, "migrated_out")
			st.Handoffs = infoUint(info, "handoffs")
			st.MigrateFails = infoUint(info, "migrate_failures")
		}
		st.ClientSpills = n.spills.Load()
		st.ClientAltHits = n.altHits.Load()
		st.BreakerState = n.pool.Stats().BreakerState
		out = append(out, st)
	}
	return out
}

// Skew returns the relative load skew across the last probed loads:
// (max-mean)/mean, 0 for a perfectly even ring. Call Probe (or Status)
// first for fresh figures.
func (cl *Cluster) Skew() float64 {
	loads := make([]float64, len(cl.nodes))
	for i, n := range cl.nodes {
		loads[i] = n.load()
	}
	return cluster.Skew(loads)
}

// RebalanceReport summarizes one Rebalance run.
type RebalanceReport struct {
	// SkewBefore and SkewAfter are the relative load skew at entry and
	// after the final round.
	SkewBefore, SkewAfter float64
	// HomeRepaired counts keys moved by the initial misplacement-repair
	// pass (home mode).
	HomeRepaired int
	// Shed counts keys moved by the load-balancing rounds (shed mode).
	Shed int
	// Rounds is how many shed rounds ran.
	Rounds int
	// Converged reports whether the final skew is at or below the
	// configured SkewTarget.
	Converged bool
}

// Migrated returns the total keys the run moved.
func (r RebalanceReport) Migrated() int { return r.HomeRepaired + r.Shed }

// Rebalance evens load across the ring in two stages. First a repair
// pass: every node pushes keys that do not belong on it (after a
// membership change, or spilled writes whose primary recovered) toward
// their candidates — MIGRATE home against every other node. Then shed
// rounds: while the skew is above SkewTarget, the most loaded node sheds
// up to batch correctly-placed keys to their alternate choice, preferring
// the least loaded destination — the cluster-level cuckoo kick-out.
// maxRounds bounds the shed loop; batch <= 0 means 512 per round.
func (cl *Cluster) Rebalance(maxRounds, batch int) (RebalanceReport, error) {
	if batch <= 0 {
		batch = 512
	}
	var rep RebalanceReport
	if err := cl.Probe(); err != nil {
		return rep, err
	}
	rep.SkewBefore = cl.Skew()

	// Stage 1: repair misplaced keys toward their real candidates.
	for _, src := range cl.nodes {
		for _, dst := range cl.nodes {
			if dst == src {
				continue
			}
			n, err := cl.migrate(src, "home", dst.addr, 0, cl.ring)
			if err != nil {
				return rep, fmt.Errorf("home repair %s -> %s: %w", src.addr, dst.addr, err)
			}
			rep.HomeRepaired += n
		}
	}

	// Stage 2: shed from the most loaded node until the skew target holds
	// or no candidate move helps.
	for rep.Rounds = 0; rep.Rounds < maxRounds; rep.Rounds++ {
		if err := cl.Probe(); err != nil {
			return rep, err
		}
		if cl.Skew() <= cl.opt.SkewTarget {
			break
		}
		src := cl.nodes[0]
		for _, n := range cl.nodes[1:] {
			if n.load() > src.load() {
				src = n
			}
		}
		// Try destinations from least loaded up; a destination only
		// receives keys whose alternate it is, so a move can come up
		// empty without the ring being balanced yet.
		dsts := make([]*clusterNode, 0, len(cl.nodes)-1)
		for _, n := range cl.nodes {
			if n != src {
				dsts = append(dsts, n)
			}
		}
		moved := 0
		for len(dsts) > 0 {
			min := 0
			for i, n := range dsts {
				if n.load() < dsts[min].load() {
					min = i
				}
			}
			dst := dsts[min]
			dsts = append(dsts[:min], dsts[min+1:]...)
			if dst.load() >= src.load() {
				break // no destination is lighter; shedding would ping-pong
			}
			n, err := cl.migrate(src, "shed", dst.addr, batch, cl.ring)
			if err != nil {
				return rep, fmt.Errorf("shed %s -> %s: %w", src.addr, dst.addr, err)
			}
			if n > 0 {
				moved = n
				rep.Shed += n
				break
			}
		}
		if moved == 0 {
			break // nothing movable; stop instead of spinning
		}
	}

	if err := cl.Probe(); err != nil {
		return rep, err
	}
	rep.SkewAfter = cl.Skew()
	rep.Converged = rep.SkewAfter <= cl.opt.SkewTarget
	return rep, nil
}

// Drain empties addr ahead of removing it from service: every key moves
// to its candidate under the ring without addr, so readers using the
// surviving membership find everything. Returns the number of keys moved.
// The node itself stays up (and keeps answering) until its operator stops
// it; Drain only relocates data.
func (cl *Cluster) Drain(addr string) (int, error) {
	idx := cl.ring.Index(addr)
	if idx < 0 {
		return 0, fmt.Errorf("client: drain target %s not in ring", addr)
	}
	survivors, err := cl.ring.Without(addr)
	if err != nil {
		return 0, err
	}
	src := cl.nodes[idx]
	total := 0
	for _, dest := range survivors.Nodes() {
		n, err := cl.migrate(src, "home", dest, 0, survivors)
		if err != nil {
			return total, fmt.Errorf("drain %s -> %s: %w", addr, dest, err)
		}
		total += n
	}
	return total, nil
}

// Collect implements obs.Collector: the cluster-level series (spills,
// fallthrough reads, per-node load, ring skew) plus every node's pool
// series labeled with node=<addr>.
func (cl *Cluster) Collect(m *obs.Metrics) {
	for _, n := range cl.nodes {
		m.Counter("cuckood_cluster_spills_total",
			"Writes redirected to a key's alternate node (overload or failure of the primary).",
			float64(n.spills.Load()), "node", n.addr)
		m.Counter("cuckood_cluster_alt_reads_total",
			"Reads that fell through to the alternate node.",
			float64(n.altReads.Load()), "node", n.addr)
		m.Counter("cuckood_cluster_alt_read_hits_total",
			"Fallthrough reads that found the key on the alternate.",
			float64(n.altHits.Load()), "node", n.addr)
		m.Counter("cuckood_cluster_probe_failures_total",
			"CLUSTER load probes that failed.",
			float64(n.probeFails.Load()), "node", n.addr)
		m.Gauge("cuckood_cluster_node_load",
			"Last probed load fraction (entries/capacity) per node.",
			n.load(), "node", n.addr)
		m.Gauge("cuckood_cluster_node_entries",
			"Last probed entry count per node.",
			float64(n.entries.Load()), "node", n.addr)
		n.pool.CollectWith(m, "node", n.addr)
	}
	m.Gauge("cuckood_cluster_load_skew",
		"Relative load skew across the ring: (max-mean)/mean of probed loads.",
		cl.Skew())
	m.Counter("cuckood_client_stale_rejected_total",
		"Versioned reads rejected because the reply was older than this client's per-key floor.",
		float64(cl.staleRejected.Load()))
	if cl.hot != nil {
		m.Counter("cuckood_client_hot_cache_hits_total",
			"Hot-key reads served from the local invalidation-aware cache.",
			float64(cl.hot.hits.Load()))
		m.Counter("cuckood_client_hot_cache_misses_total",
			"Hot-key cache lookups that fell through to the servers.",
			float64(cl.hot.misses.Load()))
		m.Counter("cuckood_client_hot_cache_invalidations_total",
			"Hot-key cache entries dropped by writes through this client.",
			float64(cl.hot.invalidations.Load()))
	}
}
