package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"time"

	"cuckoohash/internal/connbuf"
	"cuckoohash/internal/obs"
	"cuckoohash/internal/txn"
)

// Compile-time: the codec's TRACE id bound equals the span scratch size,
// so an accepted trace ID always fits the per-connection span.
var _ = [1]struct{}{}[maxTraceIDLen-obs.MaxTraceIDLen]

// maxLine is the longest request line, '\n' included (docs/PROTOCOL.md).
// A longer one closes the connection: resynchronizing mid-line is not
// possible.
const maxLine = 64 << 10

// errBusy is the overload fast-fail ("ERR busy" on the wire): the request
// was rejected without executing and may be retried after backoff.
var errBusy = errors.New("busy")

// maxTxnOps bounds one MULTI's queue so a client cannot grow server-side
// state without limit; past it the transaction is poisoned and EXEC fails.
const maxTxnOps = 64

// connState is the per-connection request-loop state. latShard pins the
// connection to one shard of the sampled-latency histogram (assigned from
// the monotonically increasing connection count), so latency recording
// never shares a cache line with another connection. It doubles as the
// split-counter shard hint, for the same reason it exists at all: it is
// this connection's stable, collision-spread identity.
type connState struct {
	remote   string
	latShard uint64
	reqCount uint64

	// span is this connection's cuckootrace scratch: stage timings and
	// the wire trace ID of the request in flight. Armed per request by
	// serveBatchHead; disarmed spans never read the clock.
	span obs.Span
	// outcome classifies the request in flight for the flight recorder.
	outcome obs.Outcome

	// MULTI state. Queued ops copy their keys/values out of the read
	// buffer (the buffer is recycled long before EXEC). txnBad poisons
	// the transaction on any queue-time error; EXEC then refuses to run
	// a partial op list.
	inTxn  bool
	txnBad bool
	txnOps []txn.Op
}

// resetTxn drops all MULTI state, e.g. after EXEC or DISCARD.
func (cs *connState) resetTxn() {
	cs.inTxn, cs.txnBad, cs.txnOps = false, false, nil
}

// handleConn runs one connection's request loop. The loop is the
// server-side analogue of the paper's batching principle (§4.3.2 amortizes
// per-operation overhead across a batch): it blocks for the first request,
// then keeps parsing requests for as long as the read buffer has complete
// lines, and flushes the write buffer once per such batch. A client that
// pipelines N requests costs one read syscall, one write syscall, and one
// latency-sample clock pair — not N of each. The buffers (internal/connbuf)
// rest at 4 KB a direction and grow with the batch: the reader doubles
// when a read fills it or a line does not fit; replies that overflow the
// writer wait in a spill for the batch's one write, and the writer doubles
// until that batch would have fit; both fall back after a few batches that
// used less than a quarter of them. So the one read holds once the reader
// has grown to the batch, the one write for any batch with up to 64 KB of
// replies, and an idle connection keeps 8 KB.
func (s *Server) handleConn(nc net.Conn) {
	defer s.forgetConn(nc)
	cs := &connState{
		remote:   nc.RemoteAddr().String(),
		latShard: s.cache.stats.connsTotal.Add(1),
	}
	// A handler panic is exactly the incident the flight recorder exists
	// for: dump the recent-operation tail before re-panicking so the
	// crash log shows what the server was doing, not just where it died.
	defer func() {
		if p := recover(); p != nil {
			s.log.Error("panic in connection handler",
				"remote", cs.remote, "panic", p,
				"recent_ops", s.flight.Summary(flightDumpOps))
			panic(p)
		}
	}()
	s.cache.stats.connsActive.Add(1)
	defer s.cache.stats.connsActive.Add(-1)

	r := connbuf.NewReader(nc, maxLine)
	w := connbuf.NewWriter(nc)

	for {
		// Blocking read for the head of the next batch, bounded by the
		// idle timeout so abandoned connections release their resources.
		s.armReadDeadline(nc, s.cfg.IdleTimeout)
		line, err := readLine(r)
		if err != nil {
			// A shutdown wakes blocked readers via a past read deadline;
			// flush whatever a slow client has not consumed and drop out.
			switch {
			case errors.Is(err, connbuf.ErrLineTooLong):
				s.log.Warn("closing connection", "remote", cs.remote, "err", err)
			case errors.Is(err, os.ErrDeadlineExceeded) && !s.draining.Load():
				s.cache.stats.idleClosed.Add(1)
				s.log.Debug("closing idle connection", "remote", cs.remote,
					"idle_timeout", s.cfg.IdleTimeout)
			case !errors.Is(err, io.EOF) && !s.draining.Load():
				s.log.Debug("connection closed", "remote", cs.remote, "err", err)
			}
			w.Flush()
			return
		}
		// One write deadline covers the whole batch — including the 64 KB
		// writes of a batch whose replies pass that — so a client that
		// stops reading cannot pin the handler (and its wg slot) forever.
		if s.cfg.IOTimeout > 0 {
			nc.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
		}
		quit := s.serveBatchHead(line, r, w.Writer, cs)
		if err := w.Flush(); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.cache.stats.ioTimeouts.Add(1)
				s.log.Warn("write timed out; closing connection",
					"remote", cs.remote, "io_timeout", s.cfg.IOTimeout)
			}
			return
		}
		if quit {
			return
		}
		if s.draining.Load() {
			// Drain: the batch in flight was completed and flushed; now
			// close instead of blocking on a read that will never come.
			return
		}
	}
}

// armReadDeadline sets the idle deadline for the next blocking read without
// racing Shutdown's wake-up: Shutdown stores draining (under s.mu) before
// stamping every connection with an already-expired deadline, so arming
// first and re-checking draining after guarantees we either observe the
// drain or Shutdown observes (and overwrites) our fresh deadline.
func (s *Server) armReadDeadline(nc net.Conn, d time.Duration) {
	if d <= 0 {
		return
	}
	nc.SetReadDeadline(time.Now().Add(d))
	if s.draining.Load() {
		nc.SetReadDeadline(time.Now())
	}
}

// serveBatchHead processes line and then every further request already
// buffered, returning true if the client asked to quit.
func (s *Server) serveBatchHead(line []byte, r *connbuf.Reader, w *bufio.Writer, cs *connState) bool {
	st := s.cache.stats
	for {
		sample := cs.reqCount&latencySampleMask == 0
		cs.reqCount++
		// The span runs whenever it can matter: on sampled requests (they
		// feed the latency and stage histograms) and on *every* request
		// when a slow-op threshold is armed — a request over -slow-op must
		// never be dropped by sampling; it is the rare event the operator
		// asked to see. With no threshold, 15 of 16 requests never read
		// the clock.
		timed := sample || s.slowOp > 0
		if timed {
			cs.span.Arm()
		} else {
			cs.span.Disarm()
		}
		start := cs.span.Now()
		cs.outcome = obs.OutcomeOK
		req, quit := s.serveRequest(line, r, w, cs)
		var durNs int64
		if timed {
			durNs = cs.span.Now() - start
			cs.span.Finish(durNs)
			if sample {
				st.recordLatency(cs.latShard, uint64(durNs))
				st.stages.RecordSpan(int(req.op.row().stage), cs.latShard, &cs.span)
				if len(req.key) > 0 {
					st.touchHot(cs.latShard, req.key)
				}
			}
			if s.slowOp > 0 && time.Duration(durNs) >= s.slowOp {
				st.slowOps.Add(1)
				st.slowTraces.Note(cs.span.TraceBytes(), req.op.String(), float64(durNs)/1e9)
				// req.key aliases the read buffer; string() copies it
				// before the next read can clobber it.
				s.log.Warn("slow request",
					"op", req.op.String(),
					"key", string(req.key),
					"dur", time.Duration(durNs),
					"trace", string(cs.span.TraceBytes()),
					"stages", obs.SummarizeStages(cs.span.Stages()),
					"remote", cs.remote)
			}
		}
		// The flight recorder sees every request, timed or not: an
		// untimed record still carries verb, outcome, key hash and trace,
		// which is what incident dumps need most.
		rec := obs.FlightRecord{
			Verb:    req.op.String(),
			Outcome: cs.outcome,
			KeyHash: hashKey(req.key),
			TotalNs: durNs,
			Stages:  cs.span.Stages(),
		}
		rec.SetTrace(req.trace)
		s.flight.Record(cs.latShard, &rec)
		if quit {
			return true
		}
		if r.Buffered() == 0 {
			return false
		}
		var err error
		line, err = readLine(r)
		if err != nil {
			return true
		}
	}
}

// serveRequest executes one parsed request, writing its response into w.
// It reads from r only for a HANDOFF payload (the bulk bytes follow the
// request line). It returns the parsed request so the caller can
// attribute slow-op traces.
func (s *Server) serveRequest(line []byte, r *connbuf.Reader, w *bufio.Writer, cs *connState) (req request, quit bool) {
	t0 := cs.span.Begin()
	req, err := parseRequest(line)
	cs.span.End(obs.StageParse, t0)
	if err != nil {
		// A parse failure inside MULTI poisons the transaction: EXEC
		// must not run an op list the client thinks is longer.
		if cs.inTxn {
			cs.txnBad = true
		}
		cs.outcome = obs.OutcomeBad
		writeErr(w, err)
		// An oversized HANDOFF length is fatal to the connection: the
		// payload bytes are already behind the line and cannot be skipped,
		// so the stream would desynchronize into garbage commands.
		return request{op: opBad}, errors.Is(err, errBadPayload)
	}
	if req.trace != nil {
		// Works even on a disarmed span: trace propagation (slow logs,
		// flight records, MIGRATE hops) must survive unsampled requests.
		cs.span.SetTrace(req.trace)
	}
	// MULTI queueing happens before the in-flight gate: a queued op
	// touches only this connection's buffer, never the cache. EXEC,
	// DISCARD, and MULTI itself fall through to dispatch (a nested MULTI
	// is an error, but — like Redis — not one that aborts the queue).
	if cs.inTxn && req.op != opExec && req.op != opDiscard && req.op != opMulti {
		if req.op == opQuit {
			return req, true
		}
		s.queueTxnOp(w, cs, req)
		return req, false
	}
	// In-flight limit: past MaxInflight a request fails fast with "ERR
	// busy" (retryable; it did not execute) instead of queueing behind a
	// saturated table — unless its verb-table row marks it exempt.
	if s.inflight != nil && !req.op.row().exempt {
		t0 = cs.span.Begin()
		select {
		case s.inflight <- struct{}{}:
			cs.span.End(obs.StageDispatch, t0)
			defer func() { <-s.inflight }()
		default:
			cs.span.End(obs.StageDispatch, t0)
			s.cache.stats.busyRejected.Add(1)
			cs.outcome = obs.OutcomeBusy
			writeErr(w, errBusy)
			return req, false
		}
	}
	if s.dispatchFast(req, w, cs) {
		return req, false
	}
	switch req.op {
	case opDel:
		if s.cache.Delete(string(req.key), &cs.span) {
			writeOK(w)
		} else {
			writeMiss(w)
		}
	case opTTL:
		if d, ok := s.cache.TTL(string(req.key)); ok {
			writeTTL(w, d, d == 0)
		} else {
			writeMiss(w)
		}
	case opStats:
		writeBlock(w, "STAT ", s.cache.Snapshot(s.cache.stats))
	case opCluster:
		writeBlock(w, "CLUSTER ", s.clusterInfo())
	case opHotKeys:
		writeHotKeys(w, s.cache.stats.HotKeys(int(req.delta)))
	case opReplSet, opReplDel:
		var applied bool
		var err error
		if req.op == opReplSet {
			applied, err = s.cache.applyReplicaSet(req.key, req.val, req.delta, req.ver, &cs.span)
		} else {
			applied = s.cache.applyReplicaDel(string(req.key), req.ver, &cs.span)
		}
		switch {
		case err != nil:
			s.replyErr(w, cs, err)
		case applied:
			s.cache.stats.replApplied.Add(1)
			writeOK(w)
		default:
			s.cache.stats.replStale.Add(1)
			writeStale(w)
		}
	case opMigrate:
		if n, err := s.Migrate(req.mig, req.trace); err != nil {
			s.replyErr(w, cs, err)
		} else {
			writeCount(w, "MIGRATED ", uint64(n))
		}
	case opHandoff:
		if err := s.applyHandoff(r, w, req.payload, &cs.span); err != nil {
			// The payload never arrived in full; the stream is undefined.
			s.log.Warn("handoff payload truncated", "err", err)
			cs.outcome = obs.OutcomeErr
			return req, true
		}
	case opIncr, opDecr, opAdd, opMaxUpdate:
		apply := s.cache.Incr
		if req.op == opMaxUpdate {
			apply = s.cache.MaxUpdate
		}
		if err := apply(string(req.key), req.delta, cs.latShard, &cs.span); err != nil {
			s.replyErr(w, cs, err)
		} else {
			writeOK(w)
		}
	case opCAS:
		res, err := s.cache.CAS(string(req.key), string(req.old), string(req.val), &cs.span)
		switch {
		case err != nil:
			s.replyErr(w, cs, err)
		case res == txn.CASStored:
			writeOK(w)
		case res == txn.CASMiss:
			writeMiss(w)
		default:
			writeConflict(w)
		}
	case opMulti:
		if cs.inTxn {
			s.replyErr(w, cs, errNestedMulti)
		} else {
			cs.inTxn = true
			writeOK(w)
		}
	case opExec:
		switch {
		case !cs.inTxn:
			s.replyErr(w, cs, errNoMulti)
		case cs.txnBad:
			cs.resetTxn()
			s.replyErr(w, cs, errTxnAborted)
		default:
			writeExecResults(w, s.cache.Exec(cs.txnOps, &cs.span))
			cs.resetTxn()
		}
	case opDiscard:
		if !cs.inTxn {
			s.replyErr(w, cs, errNoMulti)
		} else {
			cs.resetTxn()
			writeOK(w)
		}
	case opQuit:
		return req, true
	}
	return req, false
}

// dispatchFast executes the read family (GET, GETV, LEASE) and the SET
// family (SET, SETEX, SETV, SETL) and reports whether it handled the
// request; everything else falls through to serveRequest's full switch.
// Each family is one Cache operation — the verbs are projections that
// drop what they do not reply — and the split from serveRequest exists
// so the allocation proof has a root covering exactly the per-request
// steady state: a read hit or miss runs from read buffer to reply writer
// without touching the allocator, and a SET allocates exactly the one
// item it stores.
//
//cuckoo:hotpath dispatch for the read and SET families; a read hit or miss is proven allocation-free end to end
func (s *Server) dispatchFast(req request, w *bufio.Writer, cs *connState) bool {
	switch req.op {
	case opGet, opGetV:
		it, ok := s.cache.get(req.key, &cs.span)
		switch {
		case !ok:
			writeMiss(w)
		case req.op == opGet:
			writeValue(w, tagValue, 0, it.val())
		default:
			writeValue(w, tagValueV, it.ver(), it.val())
		}
	case opLease:
		// A live hit short-circuits to VALUEV (the common case once the
		// key is filled); anything else enters the fill-lease protocol.
		it, si, state := s.cache.lookup(req.key, &cs.span)
		s.cache.countGet(si, state == probeLive)
		if state == probeLive {
			writeValue(w, tagValueV, it.ver(), it.val())
		} else {
			s.leaseMiss(req, w, cs, it, state == probeStale)
		}
	case opSet, opSetEx, opSetV, opSetLease:
		if req.op == opSetLease && !s.redeemLease(req.key, req.ver, cs) {
			writeMiss(w)
			break
		}
		// key and val still alias the read buffer; the item set builds is
		// the one copy.
		ver, err := s.cache.set(req.key, req.val, req.ttl, &cs.span)
		switch {
		case err != nil:
			s.replyErr(w, cs, err)
		case req.op == opSet || req.op == opSetEx:
			writeOK(w)
		default:
			// SETV and an accepted SETL acknowledge with the version the
			// write itself stored, so version-aware clients can maintain
			// a monotonic floor for their own writes.
			if req.op == opSetLease {
				s.cache.stats.leaseFills.Add(1)
			}
			writeCount(w, "VER ", ver)
		}
	default:
		return false
	}
	return true
}

// leaseMiss is LEASE on a key with no live copy, the miss-storm collapse:
// the first caller wins the fill lease and gets LEASE <token> <ttl_ms>;
// later callers are served the expired copy as STALE <ver> <val> when
// one is still in the table (the sweeper reclaims it eventually, which
// bounds the stale window), or told to WAIT.
//
//cuckoo:coldpath a lease round runs once per missing key per client, never on a hit
func (s *Server) leaseMiss(req request, w *bufio.Writer, cs *connState, stale item, haveStale bool) {
	st := s.cache.stats
	t0 := cs.span.Begin()
	token, granted, waitMS := s.cache.leases.Acquire(string(req.key), time.Now().UnixNano())
	cs.span.End(obs.StageLease, t0)
	switch {
	case granted:
		st.leaseGrants.Add(1)
		writeLease(w, token, s.cache.leases.TTLMillis())
	case haveStale:
		st.leaseStaleServes.Add(1)
		writeValue(w, tagStale, stale.ver(), stale.val())
	default:
		st.leaseWaits.Add(1)
		writeCount(w, "WAIT ", uint64(waitMS))
	}
}

// redeemLease validates-and-releases SETL's token atomically before the
// fill is stored: a fill racing any fresher acknowledged mutation (which
// invalidated the lease) is rejected and stores nothing, so a slow
// filler can never resurrect data a newer write superseded. An accepted
// fill then stores through the one SET path — versioned, mirrored,
// evicting.
//
//cuckoo:coldpath a lease is redeemed once per miss storm, by the one client that won the fill
func (s *Server) redeemLease(key []byte, token uint64, cs *connState) bool {
	t0 := cs.span.Begin()
	ok := s.cache.leases.ValidateRelease(string(key), token, time.Now().UnixNano())
	cs.span.End(obs.StageLease, t0)
	if !ok {
		s.cache.stats.leaseRejects.Add(1)
	}
	return ok
}

// replyErr writes an error reply and classifies the request for the
// flight recorder.
func (s *Server) replyErr(w *bufio.Writer, cs *connState, err error) {
	cs.outcome = obs.OutcomeErr
	writeErr(w, err)
}

// hashKey is FNV-1a over the key bytes: flight records keep a hash, not
// the key, so /debug/flight never leaks key material while still letting
// an operator correlate records of the same key.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

var (
	errNestedMulti = errors.New("MULTI calls cannot be nested")
	errNoMulti     = errors.New("no MULTI in progress")
	errTxnAborted  = errors.New("transaction aborted by a queue-time error")
	errTxnTooLong  = errors.New("transaction exceeds " + strconv.Itoa(maxTxnOps) + " ops")
	errNotInTxn    = errors.New("command is not allowed inside MULTI")
)

// queueTxnOp buffers one request of an open MULTI. Keys and values are
// copied out of the read buffer here — the buffer is long recycled by
// the time EXEC runs. Any rejection poisons the transaction so a partial
// op list can never commit.
func (s *Server) queueTxnOp(w *bufio.Writer, cs *connState, req request) {
	if cs.txnBad {
		s.replyErr(w, cs, errTxnAborted)
		return
	}
	if len(cs.txnOps) >= maxTxnOps {
		cs.txnBad = true
		s.replyErr(w, cs, errTxnTooLong)
		return
	}
	kind := req.op.row().queue
	if kind == 0 {
		// Admin and bulk verbs (STATS, CLUSTER, MIGRATE, HANDOFF, MULTI)
		// have no transactional meaning; reject and poison.
		cs.txnBad = true
		s.replyErr(w, cs, errNotInTxn)
		return
	}
	// The operands a verb does not carry parsed as zero, so one copy-out
	// fits every queueable verb.
	op := txn.Op{Kind: kind - 1, Key: string(req.key), Val: string(req.val), Old: string(req.old), Delta: req.delta}
	if req.ttl > 0 {
		op.ExpireAt = time.Now().Add(req.ttl).UnixNano()
	}
	cs.txnOps = append(cs.txnOps, op)
	writeQueued(w)
}

// readLine returns the next \n-terminated line with the terminator (and a
// preceding \r, if any) stripped. The line aliases the reader's buffer.
func readLine(r *connbuf.Reader) ([]byte, error) {
	line, err := r.ReadLine()
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}
