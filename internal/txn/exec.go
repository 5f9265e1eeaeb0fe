package txn

import (
	"slices"
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

// cell is one key's view while a transaction runs: loaded once under the
// key's held stripe, then read and rewritten by each op on the key. A
// counter's write keeps expireAt, the expiry the key was loaded with.
type cell struct {
	val      string
	ok       bool
	write    OpKind // the buffered write, OpSet or OpDel; OpGet until an op writes
	expireAt int64
}

// Exec runs ops as one atomic multi-key transaction and returns a result
// per op. The transaction knows its whole key set, so it takes every
// distinct stripe first, in ascending order (LockOrdered, the §4.4
// discipline generalized), folds each hot key's pending split deltas
// under its held stripe, runs the ops in queue order against the backing
// store, applies the writes and releases. Nothing else can touch a key in
// between, so it never aborts. Stripe wait is attributed to rec as
// StageLock and the ops as StageProbe.
func (s *Store) Exec(ops []Op, rec *obs.Span) []Result {
	if len(ops) == 0 {
		return nil
	}
	// Everything the commit writes into is allocated, and every op matched
	// to its key's cell, before the stripes are taken, so the critical
	// section holds decisions only. A key's cell sits at the index of the
	// first op that names it (first); the other cells stay zero, a cell
	// with no write.
	idxs := make([]uint64, len(ops))
	res := make([]Result, len(ops))
	cells := make([]cell, len(ops))
	first := make([]int, len(ops))
	for i := range ops {
		idxs[i] = s.stripeFor(ops[i].Key)
		first[i] = slices.IndexFunc(ops, func(o Op) bool { return o.Key == ops[i].Key })
	}
	t0 := rec.Begin()
	held := s.locks.LockOrdered(idxs)
	rec.End(obs.StageLock, t0)
	t1 := rec.Begin()
	for i := range ops {
		op := &ops[i]
		c := &cells[first[i]]
		if first[i] == i {
			s.reconcileIfHotLocked(op.Key)
			c.val, c.expireAt, c.ok = s.kv.Load(op.Key)
		}
		res[i] = applyToCell(op, c)
	}
	s.flush(ops, res, cells, first)
	rec.End(obs.StageProbe, t1)
	s.locks.UnlockOrdered(held)
	s.stats.commits.Add(1)
	return res
}

// flush applies the cells' buffered writes to the backing store, one
// Update a key; the caller holds every touched key's stripe. A store error
// (a full shard) surfaces on the ops that buffered the failed write.
func (s *Store) flush(ops []Op, res []Result, cells []cell, first []int) {
	for k := range cells {
		if cells[k].write == OpGet {
			continue
		}
		if _, err := s.kv.Update(ops[k].Key, Change{c: cells[k]}); err != nil {
			for i := range ops {
				if first[i] == k && res[i].Status == StatusOK {
					res[i] = Result{Status: StatusErr, Err: err.Error()}
				}
			}
		}
	}
}

// applyToCell executes one op against a key's cell, buffering writes in
// it. It is the one statement of every verb's rules: Exec runs it per op,
// and the single-key verbs run it on a cell of their own (applyOne).
func applyToCell(op *Op, c *cell) Result {
	switch op.Kind {
	case OpGet:
		if !c.ok {
			return Result{Status: StatusMiss}
		}
		return Result{Status: StatusValue, Value: c.val}
	case OpSet:
		c.val, c.ok = op.Val, true
		c.write = OpSet
		c.expireAt = op.ExpireAt
		return Result{Status: StatusOK}
	case OpDel:
		was := c.ok
		c.val, c.ok, c.expireAt = "", false, 0
		c.write = OpDel
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
		c.write = OpSet
		return Result{Status: StatusOK}
	case OpCAS:
		switch {
		case !c.ok:
			return Result{Status: StatusMiss}
		case c.val != op.Old:
			return Result{Status: StatusConflict}
		default:
			c.val = op.Val
			c.write = OpSet
			return Result{Status: StatusOK}
		}
	}
	return Result{Status: StatusErr, Err: "unknown op"}
}
