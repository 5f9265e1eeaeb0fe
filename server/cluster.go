package server

// Cluster support (docs/CLUSTER.md): cuckood nodes form a static-
// membership two-choice ring — every key has a primary and an alternate
// node, computed by internal/cluster with the same hash discipline the
// table uses for its two candidate buckets. This file is the server side
// of that layer:
//
//   - CLUSTER reports the node's load figures so clients and cuckooctl
//     can make spill and rebalance decisions;
//   - MIGRATE selects keys by their ring placement and pushes them to a
//     peer in the snapshot wire format (persist.go), then deletes the
//     moved keys locally — a cuckoo kick-out between machines;
//   - HANDOFF is the receiving side of that bulk transfer: a length-
//     prefixed snapshot stream applied through the normal Set path.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"cuckoohash/internal/cluster"
	"cuckoohash/internal/obs"
)

// migrateIOTimeout bounds the outbound side of one MIGRATE: the dial of
// the destination plus the full handoff exchange. Migrations move bulk
// data, so the bound is generous; a stuck peer still cannot pin the
// handler forever.
const migrateIOTimeout = 30 * time.Second

var (
	errMigrateDest = errors.New("migrate destination is not in the ring")
	errMigrateSelf = errors.New("migrate destination equals self")
)

// clusterInfo renders the node's cluster-relevant figures as CLUSTER
// response lines: its address, then the counter-table rows that carry a
// CLUSTER name — load (what the client's spill watermark and cuckooctl's
// rebalance compare) and the migration counters.
func (s *Server) clusterInfo() []Stat {
	addr := s.cfg.Addr
	if s.ln != nil {
		addr = s.ln.Addr().String()
	}
	r := &reading{c: s.cache, st: s.cache.stats}
	return append([]Stat{{"addr", addr}}, r.render(func(row *counter) string { return row.cluster })...)
}

// Migrate moves up to max keys (0 = unlimited) matching the mode's
// placement predicate to dest, and returns how many were moved. It is
// synchronous: selection, bulk transfer, and local deletion all complete
// before it returns, so the MIGRATED count a client reads is already
// reflected in the migrated_out counter.
// trace, when non-nil, is the requesting client's wire trace ID: it is
// forwarded on the HANDOFF hop and stamped on this node's migration
// logs, so one traced request is one trace ID across every node it
// touches.
func (s *Server) Migrate(a *migrateArgs, trace []byte) (int, error) {
	ring, err := cluster.Parse(a.ring, a.seed)
	if err != nil {
		return 0, err
	}
	if ring.Index(a.dest) < 0 {
		return 0, errMigrateDest
	}
	if a.dest == a.self {
		return 0, errMigrateSelf
	}
	recs := s.cache.selectForMigrate(ring, a.mode, a.dest, a.self, a.max)
	if len(recs) == 0 {
		return 0, nil
	}

	start := time.Now()
	loaded, err := sendHandoff(a.dest, recs, trace)
	if err != nil {
		s.cache.stats.migrateFails.Add(1)
		s.log.Warn("migrate failed", "dest", a.dest, "keys", len(recs),
			"trace", string(trace), "err", err)
		return 0, fmt.Errorf("handoff to %s: %w", a.dest, err)
	}

	// The records are durably applied on dest; remove them here. A key a
	// concurrent SET refreshed since selection is left alone — the fresh
	// value wins locally, and the (stale) copy shipped to dest is shadowed
	// for readers because this node stays the earlier choice until the
	// value expires or is rewritten. Cache-grade semantics, same contract
	// as expireKey's residual race.
	moved := 0
	for _, it := range recs {
		if s.cache.removeIfUnchanged(it) {
			moved++
		}
	}
	s.cache.stats.migratedOut.Add(uint64(moved))
	s.log.Info("migrated keys",
		"mode", a.mode,
		"dest", a.dest,
		"selected", len(recs),
		"applied_on_dest", loaded,
		"moved", moved,
		"trace", string(trace),
		"dur", time.Since(start))
	return moved, nil
}

// selectForMigrate walks a point-in-time snapshot of every shard and
// picks keys whose ring placement matches the mode:
//
//	home: the key does NOT belong on self, and dest is one of its two
//	      candidates — repair after a membership change, and the whole
//	      of a drain (self is absent from a drain ring, so every key
//	      qualifies for one surviving candidate or the other).
//	shed: the key DOES belong on self, and dest is its other candidate —
//	      load-balancing displacement between a key's two choices.
//
// Expired entries are skipped: migration carries no obligation to
// resurrect dead data (same rule as SaveSnapshot). Each selected key is
// returned as the item observed at selection time, so the post-transfer
// delete can skip keys a concurrent SET refreshed in the meantime.
func (c *Cache) selectForMigrate(ring *cluster.Ring, mode, dest, self string, max int) []item {
	var recs []item
	now := time.Now().UnixNano()
	for _, sh := range c.shards {
		// Items snapshots the shard under its lock and releases it before
		// we filter, so selection never holds a table lock across the
		// whole keyspace walk.
		for key, it := range sh.table.Items() {
			if it.expired(now) {
				continue
			}
			selfIsHome := ring.IsCandidate(key, self)
			if mode == "home" && selfIsHome {
				continue
			}
			if mode == "shed" && !selfIsHome {
				continue
			}
			if !ring.IsCandidate(key, dest) {
				continue
			}
			recs = append(recs, it)
			if max > 0 && len(recs) >= max {
				return recs
			}
		}
	}
	return recs
}

// removeIfUnchanged deletes want's key only if its slot still holds want
// — the item observed at migration-selection time, the victim an eviction
// chose, an entry seen expired (items compare by identity, and an item is
// never modified once stored, so equal means the same write) — so a
// concurrent SET that landed in between, even of the same bytes, survives.
func (c *Cache) removeIfUnchanged(want item) bool {
	return c.removeIf(want.key(), nil, func(cur item) bool { return cur == want })
}

// sendHandoff encodes recs in the snapshot wire format, dials dest,
// pushes them as one HANDOFF frame (length-prefixed payload), and returns
// the count the peer reports applying: the outbound half of both MIGRATE
// and replication catch-up. A non-nil trace is forwarded as the request's
// TRACE prefix so the receiving node's slow-op logs and flight records
// carry the same ID.
func sendHandoff(dest string, recs []item, trace []byte) (int, error) {
	var payload bytes.Buffer
	enc := newSnapEncoder(&payload)
	for _, it := range recs {
		enc.add(it)
	}
	if err := enc.finish(); err != nil {
		return 0, err
	}
	nc, err := net.DialTimeout("tcp", dest, migrateIOTimeout)
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(migrateIOTimeout))

	// A handoff is one bulk frame on a short-lived connection, so it keeps
	// a fixed 64 KB writer; the adaptive pair (internal/connbuf) is for the
	// many long-lived client connections.
	w := bufio.NewWriterSize(nc, 64<<10)
	if len(trace) > 0 {
		w.WriteString("TRACE ")
		w.Write(trace)
		w.WriteByte(' ')
	}
	w.WriteString("HANDOFF ")
	w.WriteString(strconv.Itoa(payload.Len()))
	w.WriteByte('\n')
	w.Write(payload.Bytes())
	if err := w.Flush(); err != nil {
		return 0, err
	}
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil {
		return 0, err
	}
	line = strings.TrimRight(line, "\r\n")
	if rest, ok := strings.CutPrefix(line, "HANDOFF "); ok {
		return strconv.Atoi(rest)
	}
	return 0, fmt.Errorf("peer rejected handoff: %q", line)
}

// applyHandoff consumes the length-prefixed snapshot payload following a
// HANDOFF request line and merges it through the normal Set path. A
// payload that fails to arrive in full is a transport failure (the
// connection is closed by the caller); a payload that arrives but fails
// validation is answered with ERR and the connection stays usable — the
// stream is back in sync at the next line either way.
func (s *Server) applyHandoff(r io.Reader, w *bufio.Writer, n uint64, sp *obs.Span) error {
	buf := make([]byte, n)
	t0 := sp.Begin()
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	sp.End(obs.StageRead, t0)
	t0 = sp.Begin()
	loaded, err := s.cache.LoadSnapshot(bytes.NewReader(buf))
	sp.End(obs.StageProbe, t0)
	if err != nil {
		s.cache.stats.handoffRejects.Add(1)
		writeErr(w, err)
		return nil
	}
	s.cache.stats.handoffs.Add(1)
	s.cache.stats.migratedIn.Add(uint64(loaded))
	writeCount(w, "HANDOFF ", uint64(loaded))
	return nil
}
