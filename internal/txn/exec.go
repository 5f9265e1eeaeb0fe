package txn

import (
	"slices"
	"strconv"
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
// key's held pin, then read and rewritten by each op on the key. A
// counter's write keeps expireAt, the expiry the key was loaded with.
type cell struct {
	val      string
	ok       bool
	write    OpKind // the buffered write, OpSet or OpDel; OpGet until an op writes
	expireAt int64
}

// Tx is one transaction's working state: its ops, a result per op and a
// cell per distinct key, all allocated by Begin before the backing store
// takes any lock, so the commit holds decisions only. The store commits
// it: holding every key's critical section, it loads each distinct key
// (Load), runs the ops (Run) and writes each key's buffered write (Write).
// A commit that found no room for a write releases everything, makes room
// and runs again from its loads; the split deltas a load drained stay with
// the Tx across those runs, and are lost only with a commit that is given
// up on (Fail).
type Tx struct {
	s    *Store
	ops  []Op
	res  []Result
	keys []txKey
}

// txKey is op i's view of its key. first is the index of the first op
// that names the key, where the key's cell and the deltas drained for it
// live; the other entries' cells stay zero, a cell with no write.
type txKey struct {
	first int
	c     cell
	pend  pending
}

// Begin readies tx to commit ops, one transaction's queue, reusing what a
// Tx that committed before it allocated, but not its results.
func (s *Store) Begin(tx *Tx, ops []Op) {
	tx.s, tx.ops, tx.res = s, ops, make([]Result, len(ops))
	if cap(tx.keys) < len(ops) {
		tx.keys = make([]txKey, len(ops))
	}
	tx.keys = tx.keys[:len(ops)]
	for i := range ops {
		tx.keys[i] = txKey{first: slices.IndexFunc(ops, func(o Op) bool { return o.Key == ops[i].Key })}
	}
}

// Distinct reports whether op k is the first to name its key: the index
// at which the store loads and writes the key.
func (tx *Tx) Distinct(k int) bool { return tx.keys[k].first == k }

// Load sets the cell of op k's key to the store's live value, expiring at
// expireAt (ok false for none), and folds the key's split deltas into it:
// those an earlier run drained and any pending now. Caller holds the
// key's critical section; k is Distinct.
func (tx *Tx) Load(k int, val string, expireAt int64, ok bool) {
	e := &tx.keys[k]
	e.c = cell{val: val, ok: ok, expireAt: expireAt}
	tx.s.drain(tx.ops[k].Key, &e.pend, false)
	e.pend.foldInto(&e.c)
}

// Run runs the ops in queue order against their keys' loaded cells.
func (tx *Tx) Run() {
	for i := range tx.ops {
		tx.res[i] = applyToCell(&tx.ops[i], &tx.keys[tx.keys[i].first].c)
	}
}

// Write returns the write Run buffered for op k's key: OpSet stores val
// to expire at exp, OpDel removes the key, OpGet (and any k that is not
// Distinct) leaves it.
func (tx *Tx) Write(k int) (write OpKind, val string, exp int64) {
	c := &tx.keys[k].c
	return c.write, c.val, c.expireAt
}

// Fail reports err on every op that changed its key: the store gave up on
// room for the commit and wrote none of it.
func (tx *Tx) Fail(err error) {
	for i := range tx.ops {
		if tx.ops[i].Kind != OpGet && tx.res[i].Status == StatusOK {
			tx.res[i] = Result{Status: StatusErr, Err: err.Error()}
		}
	}
}

// Done ends the transaction, counting its commit, and returns a result
// per op.
func (tx *Tx) Done() []Result {
	tx.s.stats.commits.Add(1)
	return tx.res
}

// applyToCell executes one op against a key's cell, buffering writes in
// it. It is the one statement of every verb's rules: a transaction runs it
// per op (Tx.Run), and the single-key verbs run it on a cell of their own
// (Change.Decide).
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
		//lint:allow cuckoovet:allocfree the re-encoded value string is the write; split mode batches these to one per fold
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
