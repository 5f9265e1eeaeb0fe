package txn

import (
	"runtime"
	"strconv"

	"cuckoohash/internal/obs"
)

// OpKind enumerates the operations a transaction may queue.
type OpKind uint8

const (
	// OpGet reads a key.
	OpGet OpKind = iota
	// OpSet writes Val (with ExpireAt as the absolute expiry, 0 = none).
	OpSet
	// OpDel removes a key.
	OpDel
	// OpIncr adds Delta to the integer at Key.
	OpIncr
	// OpMax raises the integer at Key to Delta if larger.
	OpMax
	// OpCAS replaces the value with Val if it currently equals Old.
	OpCAS
)

// Op is one queued operation of a multi-key transaction.
type Op struct {
	Kind     OpKind
	Key      string
	Val      string
	Old      string // OpCAS expected value
	Delta    int64  // OpIncr / OpMax operand
	ExpireAt int64  // OpSet absolute expiry, unix nanoseconds
}

// Status classifies one op's result on the wire.
type Status uint8

const (
	// StatusOK: the op applied (SET/DEL-present/INCR/MAX/CAS-stored).
	StatusOK Status = iota
	// StatusValue: a GET hit; Result.Value holds the value.
	StatusValue
	// StatusMiss: GET/DEL/CAS on an absent key.
	StatusMiss
	// StatusConflict: CAS found a different value.
	StatusConflict
	// StatusErr: the op failed; Result.Err describes why. The remaining
	// ops still ran — op-level errors do not abort the transaction.
	StatusErr
)

// Result is one op's outcome.
type Result struct {
	Status Status
	Value  string
	Err    string
}

// ExecInfo reports how a transaction committed.
type ExecInfo struct {
	// Retries is how many OCC validation failures preceded the commit.
	Retries int
	// Pessimistic is set when the retry budget ran out and the
	// transaction committed under stripe-ordered locks instead.
	Pessimistic bool
}

// cell is the transaction-local view of one key during the read phase.
type cell struct {
	val      string
	ok       bool
	ver      uint64
	epoch    uint64 // shard migration epoch at read time (cfg.Epoch set)
	read     bool   // version recorded; must validate at commit
	dirty    bool   // buffered write; must apply at commit
	deleted  bool
	expireAt int64
	keepTTL  bool
}

// epochOf reads key's shard migration epoch, or 0 when no source is
// configured (then every check trivially passes).
func (s *Store) epochOf(key string) uint64 {
	if s.cfg.Epoch == nil {
		return 0
	}
	return s.cfg.Epoch(key)
}

// Exec runs ops as one atomic multi-key transaction and returns a result
// per op. The engine is optimistic, per the paper's Eq. 1 reads: the
// read phase snapshots each key's stripe version and value without
// locking, ops execute against that private view, and commit re-checks
// every recorded version under the write set's sorted stripe locks. A
// concurrent writer moves a version, validation fails, and the attempt
// retries from scratch; after MaxRetries failures the transaction takes
// every stripe up front (ascending order, the §4.4 LockPair discipline
// generalized) and cannot abort. Each failed optimistic attempt is
// attributed to rec as StageTxnRetry and the committing attempt
// (optimistic or pessimistic) as StageProbe, so a transaction's span
// shows how much of its latency was wasted work.
func (s *Store) Exec(ops []Op, rec *obs.Span) ([]Result, ExecInfo) {
	if len(ops) == 0 {
		return nil, ExecInfo{}
	}
	// Split counters trade read freshness for commutativity; a
	// transaction's read set must be exact, so hot keys fold first.
	if s.split.hotCount.Load() > 0 {
		for i := range ops {
			s.ReconcileKey(ops[i].Key)
		}
	}
	for attempt := 0; attempt <= s.cfg.MaxRetries; attempt++ {
		t0 := rec.Begin()
		res, ok := s.tryExec(ops)
		if ok {
			rec.End(obs.StageProbe, t0)
			s.stats.commits.Add(1)
			s.stats.recordRetries(attempt)
			return res, ExecInfo{Retries: attempt}
		}
		rec.End(obs.StageTxnRetry, t0)
		s.stats.aborts.Add(1)
	}
	t0 := rec.Begin()
	res := s.execPessimistic(ops)
	rec.End(obs.StageProbe, t0)
	s.stats.commits.Add(1)
	s.stats.fallbacks.Add(1)
	s.stats.recordRetries(s.cfg.MaxRetries + 1)
	return res, ExecInfo{Retries: s.cfg.MaxRetries + 1, Pessimistic: true}
}

// tryExec is one optimistic attempt: versioned reads, private execution,
// validate-and-apply under sorted stripe locks. ok is false on an abort.
func (s *Store) tryExec(ops []Op) ([]Result, bool) {
	env := make(map[string]*cell, len(ops))
	res := make([]Result, len(ops))
	for i := range ops {
		op := &ops[i]
		c := env[op.Key]
		if c == nil {
			c = &cell{}
			env[op.Key] = c
		}
		// Ops that observe the current value pull it in with a versioned
		// read the commit will re-check; a blind SET does not need one
		// (its stripe is still locked at commit to apply the write).
		needsRead := op.Kind != OpSet
		if needsRead && !c.read && !c.dirty {
			// The epoch snapshot precedes the value read so that any
			// generation change overlapping the read→commit window is
			// caught by the commit-time re-check.
			c.epoch = s.epochOf(op.Key)
			val, ok, ver := s.readVersioned(op.Key)
			c.val, c.ok, c.ver, c.read = val, ok, ver, true
		}
		res[i] = applyToCell(op, c)
	}

	// Commit: lock the distinct stripes of every touched key in
	// ascending order, re-validate the read versions, then flush the
	// buffered writes. The version bump on unlock publishes the commit
	// to every other optimistic reader.
	stripes := make([]uint64, 0, len(env))
	for key := range env {
		stripes = append(stripes, s.stripeFor(key))
	}
	held := s.locks.LockOrdered(stripes)
	for key, c := range env {
		if !c.read {
			continue
		}
		if s.locks.Version(s.stripeFor(key)) != c.ver {
			s.locks.UnlockOrdered(held)
			return nil, false
		}
		// A shard that started or finished an incremental resize since the
		// read may have rehashed this entry between generations; the
		// stripe version cannot see that, so the epoch word aborts it.
		if s.epochOf(key) != c.epoch {
			s.locks.UnlockOrdered(held)
			s.stats.epochAborts.Add(1)
			return nil, false
		}
	}
	for key, c := range env {
		if !c.dirty {
			continue
		}
		if c.deleted {
			s.kv.Delete(key)
		} else if err := s.kv.Store(key, c.val, c.expireAt, c.keepTTL); err != nil {
			// A full shard surfaces on the op that buffered the write.
			for i := range ops {
				if ops[i].Key == key && res[i].Status == StatusOK {
					res[i] = Result{Status: StatusErr, Err: err.Error()}
				}
			}
		}
	}
	s.locks.UnlockOrdered(held)
	return res, true
}

// readVersioned performs one optimistic versioned read of key: snapshot
// the stripe version, read the value, validate the version (Eq. 1). It
// spins until a quiescent read succeeds.
func (s *Store) readVersioned(key string) (string, bool, uint64) {
	i := s.stripeFor(key)
	for spins := 0; ; spins++ {
		ver, unlocked := s.locks.Snapshot(i)
		if unlocked {
			val, ok := s.kv.Load(key)
			if s.locks.Validate(i, ver) {
				return val, ok, ver
			}
		}
		if spins >= 64 {
			runtime.Gosched()
			spins = 0
		}
	}
}

// applyToCell executes one op against the transaction's private view,
// buffering writes in the cell.
func applyToCell(op *Op, c *cell) Result {
	switch op.Kind {
	case OpGet:
		if !c.ok {
			return Result{Status: StatusMiss}
		}
		return Result{Status: StatusValue, Value: c.val}
	case OpSet:
		c.val, c.ok = op.Val, true
		c.dirty, c.deleted = true, false
		c.expireAt, c.keepTTL = op.ExpireAt, false
		return Result{Status: StatusOK}
	case OpDel:
		was := c.ok
		c.val, c.ok = "", false
		c.dirty, c.deleted = true, true
		if !was {
			return Result{Status: StatusMiss}
		}
		return Result{Status: StatusOK}
	case OpIncr, OpMax:
		var n int64
		if c.ok {
			v, err := strconv.ParseInt(c.val, 10, 64)
			if err != nil {
				return Result{Status: StatusErr, Err: ErrNotInteger.Error()}
			}
			n = v
		}
		if op.Kind == OpIncr {
			n += op.Delta
		} else if c.ok && n >= op.Delta {
			return Result{Status: StatusOK} // already at least Delta
		} else {
			n = op.Delta
		}
		c.val, c.ok = strconv.FormatInt(n, 10), true
		c.dirty, c.deleted = true, false
		c.keepTTL = true
		return Result{Status: StatusOK}
	case OpCAS:
		switch {
		case !c.ok:
			return Result{Status: StatusMiss}
		case c.val != op.Old:
			return Result{Status: StatusConflict}
		default:
			c.val = op.Val
			c.dirty, c.deleted = true, false
			c.keepTTL = true
			return Result{Status: StatusOK}
		}
	}
	return Result{Status: StatusErr, Err: "unknown op"}
}

// execPessimistic is the fallback after the OCC retry budget: take every
// touched stripe in ascending order first, run the ops directly against
// the backing store, release. It cannot abort, which bounds transaction
// latency under adversarial contention.
func (s *Store) execPessimistic(ops []Op) []Result {
	stripes := make([]uint64, 0, len(ops))
	for i := range ops {
		stripes = append(stripes, s.stripeFor(ops[i].Key))
	}
	held := s.locks.LockOrdered(stripes)
	res := make([]Result, len(ops))
	env := make(map[string]*cell, len(ops))
	for i := range ops {
		op := &ops[i]
		c := env[op.Key]
		if c == nil {
			c = &cell{}
			val, ok := s.kv.Load(op.Key)
			c.val, c.ok = val, ok
			env[op.Key] = c
		}
		res[i] = applyToCell(op, c)
	}
	for key, c := range env {
		if !c.dirty {
			continue
		}
		if c.deleted {
			s.kv.Delete(key)
		} else if err := s.kv.Store(key, c.val, c.expireAt, c.keepTTL); err != nil {
			for i := range ops {
				if ops[i].Key == key && res[i].Status == StatusOK {
					res[i] = Result{Status: StatusErr, Err: err.Error()}
				}
			}
		}
	}
	s.locks.UnlockOrdered(held)
	return res
}
