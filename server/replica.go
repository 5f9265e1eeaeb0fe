package server

// cuckoorepl, server side (docs/REPLICATION.md): every key's two-choice
// ring placement already names a natural second home — its alternate
// node. This file mirrors writes there asynchronously:
//
//   - the write path (Cache.store, cacheKV.Update, Cache.Delete,
//     Cache.Exec) enqueues each mutation, with its version word, onto a
//     bounded per-peer log, under the pin that applied it;
//   - one mirror worker per peer drains the log in batches and streams
//     REPLSET/REPLDEL lines over a persistent connection;
//   - when the log overflows or a send fails, the worker falls back to
//     bulk catch-up: the same snapshot-format HANDOFF transfer MIGRATE
//     uses, selecting every key the pair shares (version-preserving,
//     last-writer-wins on apply, so replaying history is always safe);
//   - inbound REPLSET/REPLDEL apply under the key's pin with a
//     version comparison, so a delayed mirror can never clobber a newer
//     local write — and never re-enqueue, so mirrors cannot loop.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"cuckoohash/internal/cluster"
	"cuckoohash/internal/obs"
	"cuckoohash/internal/replica"
)

const (
	// replLogCap bounds each peer's mirror log. At typical write rates a
	// worker drains far faster than this fills; sustained overflow means
	// the peer is down, and bulk catch-up repairs it on return.
	replLogCap = 8192
	// replBatchMax is how many log entries one pipelined send carries.
	replBatchMax = 128
	// replPollInterval is the worker's fallback wake-up: the enqueue path
	// signals the worker directly, so this only paces retries against an
	// unreachable peer and catches any lost wake-up.
	replPollInterval = 50 * time.Millisecond
	// replDialTimeout/replIOTimeout bound one mirror exchange; a stuck
	// peer costs the worker a timeout, never a wedge.
	replDialTimeout = 1 * time.Second
	replIOTimeout   = 5 * time.Second
)

// replPeer is one mirror target: its address, the bounded log of
// mutations owed to it, and the worker wake-up channel.
type replPeer struct {
	addr string
	log  *replica.Log
	wake chan struct{}
}

// replState is the node's replication configuration: the ring, this
// node's place in it, and one peer slot per other ring member
// (ring-indexed; the self slot stays nil).
type replState struct {
	ring    *cluster.Ring
	self    string
	selfIdx int
	peers   []*replPeer
}

// peerFor returns the mirror target for key: the other member of the
// key's two-choice candidate pair, or nil when this node is not one of
// the key's candidates (nothing to mirror — the key is mid-migration)
// or the ring has a single node.
func (r *replState) peerFor(key string) *replPeer {
	pi, ai := r.ring.Candidates(key)
	switch r.selfIdx {
	case pi:
		return r.peers[ai]
	case ai:
		return r.peers[pi]
	default:
		return nil
	}
}

// replEnqueue mirrors one mutation of key to the key's alternate node:
// the item just stored, or — the zero item — a client-visible delete, as a
// versioned tombstone. Called from Cache.store, cacheKV.Update,
// Cache.Delete and Cache.Exec in the step after the write, under the pin
// that applied it, so a key's entries are appended in the order its writes
// were applied, once each: the log append spins (never parks) and the
// wake-up send is non-blocking. The log entry outlives the
// request, until the mirror worker drains it or the ring drops it, and
// aliases the stored item: items are immutable, so it keeps alive the
// bytes a copy would, without allocating one, and none beyond the table's
// while the key is unchanged.
func (c *Cache) replEnqueue(key string, it item) {
	r := c.repl
	if r == nil {
		return
	}
	p := r.peerFor(key)
	if p == nil {
		return
	}
	ent := replica.Entry{EnqueuedAt: time.Now().UnixNano()}
	if it.isZero() {
		ent.Key, ent.Ver, ent.Del = key, c.nextVersion(), true
	} else {
		ent.Key, ent.Val, ent.ExpireAt, ent.Ver = it.key(), it.val(), it.expireAt(), it.ver()
	}
	p.log.Append(ent)
	c.stats.replEnqueued.Add(1)
	select { //lint:allow cuckoovet:blockcheck wake-up is a non-blocking send (default arm): it never parks the goroutine
	case p.wake <- struct{}{}:
	default:
	}
}

// applyReplicaSet stores a replicated entry if and only if it is newer
// than the local copy (last-writer-wins on the version word). It never
// re-enqueues replication — that is what keeps a mirrored write from
// bouncing between the pair forever — and it ratchets the version clock
// so local writes issued afterwards order above everything applied.
// The bool reports whether the entry was stored (false = stale-dropped).
//
// Shared by the REPLSET verb, snapshot restore, and HANDOFF bulk loads
// (MIGRATE and replication catch-up): all are "replica" writes in the
// sense that they carry an origin version that must be preserved, not
// reassigned. An applied one supersedes whatever a filler read before it,
// so, like every local write, it passes through Cache.wrote, which kills
// the key's outstanding fill lease, here, for all of those callers at once.
func (c *Cache) applyReplicaSet(key, val []byte, expireAt int64, ver uint64, sp *obs.Span) (bool, error) {
	c.observeVersion(ver)
	it, err := c.put(c.shardForBytes(key), key, val, expireAt, ver, true, sp)
	if err == errStaleReplica {
		return false, nil
	}
	if err == nil {
		c.wrote(it.key())
	}
	return err == nil, err
}

// applyReplicaDel applies a versioned tombstone: the local copy is
// removed unless it is strictly newer than the delete. Absent keys
// report true (an idempotent delete already took effect).
func (c *Cache) applyReplicaDel(key string, ver uint64, sp *obs.Span) bool {
	c.observeVersion(ver)
	applied := true
	c.removeIf(key, sp, func(cur item) bool {
		applied = cur.ver() <= ver
		return applied
	})
	if applied {
		c.wrote(key)
	}
	return applied
}

// EnableReplication turns on two-choice mirroring: nodes and seed must
// be the identical ring every participant (servers and clients) is
// configured with, and self must be this node's own address in it (""
// derives it from the bound listener, so tests using ":0" addresses can
// pass the resolved address list). Call after Listen and before Serve;
// the mirror workers stop with the server's sweeper on Shutdown.
func (s *Server) EnableReplication(nodes []string, seed uint64, self string) error {
	ring, err := cluster.New(nodes, seed)
	if err != nil {
		return err
	}
	if self == "" {
		if s.ln == nil {
			return errors.New("server: EnableReplication needs a bound listener or an explicit self address")
		}
		self = s.ln.Addr().String()
	}
	idx := ring.Index(self)
	if idx < 0 {
		return fmt.Errorf("server: self address %q is not in the replication ring %q", self, ring.CSV())
	}
	r := &replState{
		ring:    ring,
		self:    self,
		selfIdx: idx,
		peers:   make([]*replPeer, ring.Len()),
	}
	for i, addr := range ring.Nodes() {
		if i == idx {
			continue
		}
		p := &replPeer{addr: addr, log: replica.NewLog(replLogCap), wake: make(chan struct{}, 1)}
		r.peers[i] = p
		go s.mirrorWorker(p)
	}
	s.cache.repl = r
	s.log.Info("replication enabled", "self", self, "ring", ring.CSV(), "seed", seed)
	return nil
}

// ReplQueueDepth returns the total number of mutations buffered across
// all peer mirror logs — 0 means every acknowledged write has been
// handed to the transport. Tests use it to wait for mirror quiesce.
func (s *Server) ReplQueueDepth() int { return s.cache.replLogTotals().Depth }

// mirrorWorker is the drain loop for one peer: wait for work, settle
// any owed bulk catch-up, then stream batches of REPLSET/REPLDEL lines
// over a persistent connection. Failures are cheap by design — drained
// entries are abandoned and the overflow flag latched, so the next pass
// repairs the peer in bulk rather than replaying piecemeal.
func (s *Server) mirrorWorker(p *replPeer) {
	st := s.cache.stats
	var conn *replConn
	defer func() {
		if conn != nil {
			conn.close()
		}
	}()
	batch := make([]replica.Entry, 0, replBatchMax)
	for {
		select {
		case <-s.sweepStop:
			return
		case <-p.wake:
		case <-time.After(replPollInterval):
		}
		for {
			// Owed catch-up settles first so the FIFO entries sent below
			// are never older than the repair snapshot.
			if p.log.TakeOverflow() {
				if err := s.replCatchup(p); err != nil {
					st.replSendFails.Add(1)
					p.log.ForceCatchup()
					break
				}
			}
			batch = p.log.Drain(batch, replBatchMax)
			if len(batch) == 0 {
				st.replLagNs.Store(0)
				break
			}
			if oldest := batch[0].EnqueuedAt; oldest > 0 {
				st.replLagNs.Store(uint64(max64(0, time.Now().UnixNano()-oldest)))
			}
			if conn == nil {
				var err error
				if conn, err = dialRepl(p.addr); err != nil {
					// The drained entries are lost to the stream; latch a
					// bulk repair and retry on the next poll tick.
					st.replSendFails.Add(1)
					p.log.ForceCatchup()
					break
				}
			}
			if err := conn.sendBatch(batch); err != nil {
				conn.close()
				conn = nil
				st.replSendFails.Add(1)
				p.log.ForceCatchup()
				break
			}
			st.replMirrored.Add(uint64(len(batch)))
			st.replBatches.Add(1)
		}
	}
}

// replCatchup bulk-repairs a peer: select every live key whose
// candidate pair is {self, peer} (the "shed" predicate MIGRATE already
// uses — key at home on self, peer its other choice) and push one
// snapshot-format HANDOFF. The peer applies it last-writer-wins, so a
// catch-up racing live mirror traffic can only fill gaps, never regress.
func (s *Server) replCatchup(p *replPeer) error {
	r := s.cache.repl
	recs := s.cache.selectForMigrate(r.ring, "shed", p.addr, r.self, 0)
	if len(recs) == 0 {
		s.cache.stats.replCatchups.Add(1)
		return nil
	}
	loaded, err := sendHandoff(p.addr, recs, nil)
	if err != nil {
		return err
	}
	s.cache.stats.replCatchups.Add(1)
	s.log.Info("replication catch-up",
		"peer", p.addr, "selected", len(recs), "applied", loaded)
	return nil
}

// replConn is the mirror worker's persistent connection to its peer. There
// is one per peer and it carries bulk mirror batches, so its buffers keep
// fixed sizes rather than the per-client adaptive pair (internal/connbuf).
type replConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialRepl(addr string) (*replConn, error) {
	nc, err := net.DialTimeout("tcp", addr, replDialTimeout)
	if err != nil {
		return nil, err
	}
	return &replConn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 16<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}, nil
}

func (rc *replConn) close() { rc.nc.Close() }

// sendBatch pipelines one REPLSET/REPLDEL line per entry, flushes, and
// reads one reply line per entry. "OK" and "STALE" are both success
// (STALE means the peer already had something newer); an ERR line or
// transport failure fails the batch.
func (rc *replConn) sendBatch(batch []replica.Entry) error {
	rc.nc.SetDeadline(time.Now().Add(replIOTimeout))
	for i := range batch {
		e := &batch[i]
		if e.Del {
			rc.bw.WriteString("REPLDEL ")
			rc.bw.WriteString(e.Key)
			rc.bw.WriteByte(' ')
			writeUint(rc.bw, e.Ver, 10)
		} else {
			rc.bw.WriteString("REPLSET ")
			rc.bw.WriteString(e.Key)
			rc.bw.WriteByte(' ')
			writeUint(rc.bw, e.Ver, 10)
			rc.bw.WriteByte(' ')
			writeUint(rc.bw, uint64(e.ExpireAt), 10)
			rc.bw.WriteByte(' ')
			rc.bw.WriteString(e.Val)
		}
		rc.bw.WriteByte('\n')
	}
	if err := rc.bw.Flush(); err != nil {
		return err
	}
	for range batch {
		line, err := rc.br.ReadString('\n')
		if err != nil {
			return err
		}
		if len(line) >= 3 && line[0] == 'E' && line[1] == 'R' && line[2] == 'R' {
			return fmt.Errorf("peer rejected mirror entry: %q", line)
		}
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
