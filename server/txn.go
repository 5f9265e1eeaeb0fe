package server

import (
	"cmp"
	"errors"
	"slices"
	"strconv"
	"sync"

	"cuckoohash/generic"
	"cuckoohash/internal/obs"
)

// The read-modify-write verbs (docs/TRANSACTIONS.md): the commutative
// counters INCR/DECR/ADD/MAXUPDATE, CAS, and MULTI…EXEC. Each runs one op
// interpreter, applyToCell, on a cell: a single-key verb on its key's cell
// inside the decision of one table update of the key (update), an EXEC on
// every key's cell holding every key's section at once (Exec). Hot
// counters split (split.go).

// ErrNotInteger is returned when an arithmetic verb lands on a value that
// does not parse as a signed 64-bit integer.
var ErrNotInteger = errors.New("value is not an integer")

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

// cell is one key's view while its ops run: loaded under the key's held
// pin, then read and rewritten by each op on the key. A counter's write
// keeps expireAt, the expiry the key was loaded with.
type cell struct {
	val      string
	ok       bool
	write    OpKind // the buffered write, OpSet or OpDel; OpGet until an op writes
	expireAt int64
}

// live is the cell of a table entry: its value and expiry when it is there
// and has not expired.
func live(it item, found bool) cell {
	if !found || it.expiredNow() {
		return cell{}
	}
	return cell{val: it.val(), ok: true, expireAt: it.expireAt()}
}

// applyToCell executes one op against a key's cell, buffering writes in
// it. It is the one statement of every verb's rules: EXEC runs it per op,
// and the single-key verbs run it on a cell of their own (update).
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

// update runs op alone on its key — an INCR or MAXUPDATE, a CAS, or, for
// an OpGet, only a fold of the key's split deltas — in one table update of
// the key, evicting on a full shard like SET, attributed to sp as
// StageProbe. Its decision drains the key's deltas (a fold's, a demoted
// key's stragglers too), folds them into the live value, runs the op and
// builds the item of the write it buffered, with the write's version;
// deltas drained by a decision that runs again (after a search, or after
// an eviction) stay drained. The step after the applied write mirrors it
// (a delete as a versioned tombstone) and sees whether the pin had to
// wait, the contention that promotes a counter. It returns the op's
// result, how many split ops it folded, whether the pin waited, and
// ErrServerFull for a write that found no room.
func (c *Cache) update(op Op, sp *obs.Span) (res Result, folded uint64, waited bool, err error) {
	si := c.shardFor(op.Key)
	var p pending
	t0 := sp.Begin()
	err = c.evicting(si, op.Key, nil, func() error {
		_, err := c.shards[si].table.UpdateThen(op.Key, func(cur item, found bool) (item, generic.Action) {
			cl := live(cur, found)
			c.split.drain(op.Key, &p, op.Kind == OpGet)
			p.foldInto(&cl)
			res = applyToCell(&op, &cl)
			switch cl.write {
			case OpDel:
				return item{}, generic.Remove
			case OpSet:
				return newItem(c.nextVersion(), cl.expireAt, op.Key, cl.val), generic.Store
			}
			return item{}, generic.Keep
		}, func(it item, act generic.Action, w bool) {
			waited = waited || w
			if act != generic.Keep {
				c.replEnqueue(op.Key, it)
			}
		})
		if err != nil {
			return errShardFull
		}
		return nil
	})
	sp.End(obs.StageProbe, t0)
	return res, p.ops, waited, err
}

// Incr atomically adds delta to the signed 64-bit integer stored at key
// (a missing key counts from zero; int64 arithmetic wraps on overflow),
// evicting on a full shard like SET. hint spreads split-mode updates
// across delta shards; pass a stable per-connection value. The new count
// is not returned: during a split phase no single core knows it, which is
// exactly the property that lets hot counters scale (Doppel).
func (c *Cache) Incr(key string, delta int64, hint uint64, sp *obs.Span) error {
	if f := c.failOp; f != nil {
		if err := f(opIncr.String(), key); err != nil {
			return err
		}
	}
	return c.commute(key, classAdd, delta, hint, sp)
}

// MaxUpdate atomically raises the integer at key to n if n is larger (a
// missing key is treated as having no value, so n is stored). Like Incr
// it is commutative and split-eligible, and returns no value.
func (c *Cache) MaxUpdate(key string, n int64, hint uint64, sp *obs.Span) error {
	return c.commute(key, classMax, n, hint, sp)
}

// commute is the one body of the commutative verbs. A key split for this
// class takes the fast path — one padded slot update, no pin, nothing
// recorded in sp; everything else is one update of the key, whose pin
// having had to wait for the key counts toward promotion. A write that
// landed counts and kills key's fill lease.
//
//cuckoo:hotpath a split-mode INCR/MAXUPDATE is one slot update; the pinned path's value re-encode is its audited cost
func (c *Cache) commute(key string, class uint8, n int64, hint uint64, sp *obs.Span) error {
	// A key demoted between the lookup and the slot write (record false)
	// falls through to the pinned path like any cold key.
	if e, ok := c.split.lookup(key); !ok || e.class != class || !c.split.record(e, n, hint) {
		op := Op{Kind: OpIncr, Key: key, Delta: n}
		if class == classMax {
			op.Kind = OpMax
		}
		res, _, waited, err := c.update(op, sp)
		if waited && c.split.promoteAfter > 0 {
			c.split.noteContention(key, class)
		}
		if res.Status == StatusErr {
			return ErrNotInteger
		}
		if err != nil {
			return err
		}
	}
	c.stats.count(c.shardFor(key), statIncrs)
	c.wrote(key)
	return nil
}

// CAS replaces key's value with newVal only if it currently equals old,
// reporting StatusOK (stored), StatusMiss (no key) or StatusConflict (a
// different value). CAS observes the value, so it is never split; its
// decision folds the key's pending deltas before it compares.
func (c *Cache) CAS(key, old, newVal string, sp *obs.Span) (Status, error) {
	c.stats.count(c.shardFor(key), statCAS)
	res, _, _, err := c.update(Op{Kind: OpCAS, Key: key, Old: old, Val: newVal}, sp)
	switch res.Status {
	case StatusOK:
		if err == nil {
			c.wrote(key)
		}
	case StatusConflict:
		c.casConflicts.Add(1)
	}
	return res.Status, err
}

// Exec runs a MULTI/EXEC transaction as one critical section over all its
// keys: it takes each shard's section of them (generic.Table.Section) in
// ascending shard order, loads every key, runs the op interpreter and
// writes — every store first, then every removal, so that only a store can
// fail (a key needing a slot its buckets lack) and undoing the stores
// before it leaves the shards as they were. Each applied write is mirrored
// under its section. A run that found no room releases everything, makes
// room for that key and runs again from its loads. The first time a key
// needs room it comes from a path search or a grow, else an eviction from
// the key's own buckets; every later time from an eviction: in a nearly
// full shard a search for one key shifts entries into the slot the round
// before freed for another, and two new keys would trade one slot for
// ever. After maxEvictTries rounds a key it reports ErrServerFull on every
// op that changed its key, having written nothing. Section wait is
// attributed to sp as StageLock, the commit as StageProbe and making room
// as StageEvict.
func (c *Cache) Exec(ops []Op, sp *obs.Span) []Result {
	if len(ops) == 0 {
		return nil
	}
	x := execPlans.Get().(*execPlan)
	defer execPlans.Put(x)
	c.planExec(x, ops)
	failed := false
	for tries := 0; ; tries++ {
		full := -1
		t0 := sp.Begin()
		c.inSections(x, 0, func() {
			sp.End(obs.StageLock, t0)
			t0 = sp.Begin()
			full = c.commit(x)
		})
		sp.End(obs.StageProbe, t0)
		if full < 0 {
			break
		}
		if failed = tries == maxEvictTries*len(x.keys); failed {
			break
		}
		t1 := sp.Begin()
		e := &x.keys[full]
		if e.searched || c.shards[e.si].table.MakeRoom(e.name) != nil {
			c.evictFor(e.si, e.name)
		}
		e.searched = true
		sp.End(obs.StageEvict, t1)
	}
	c.commits.Add(1)
	for i := range ops {
		// StatusOK on a non-GET op is exactly "this op changed its key".
		if ops[i].Kind == OpGet || x.res[i].Status != StatusOK {
			continue
		}
		if failed {
			x.res[i] = Result{Status: StatusErr, Err: ErrServerFull.Error()}
		} else {
			c.wrote(ops[i].Key)
		}
	}
	return x.res
}

// execPlan is one EXEC's commit, built before any lock: its ops, a result
// per op, an execKey per distinct key in ascending shard order, at[i], the
// index there of op i's key, and the keys' names in the same order, as
// Table.Section takes them.
type execPlan struct {
	ops   []Op
	res   []Result
	at    []int
	names []string
	keys  []execKey
}

// execPlans keeps the scratch of finished commits: a plan allocates
// nothing beyond its results once one of its size has been used. What a
// pooled plan still refers to (its last commit's keys and items) stays
// reachable until the plan is reused or the pool drops it at a collection.
var execPlans = sync.Pool{New: func() any { return new(execPlan) }}

// execKey is one key of a commit: its name and shard, the section holding it while
// a run is in, the cell its ops run on and the split deltas its loads
// drained (kept across runs, lost only with a commit that is given up on),
// the item the run stored, and what undoing that store writes: the entry
// the run loaded, or a removal of a key that was absent.
type execKey struct {
	name     string
	si       int
	sec      generic.Section[string, item]
	c        cell
	pend     pending
	put      item
	prev     item
	back     generic.Action
	searched bool // room was made for the key by a search or a grow once
}

func (c *Cache) planExec(x *execPlan, ops []Op) {
	x.ops, x.res = ops, make([]Result, len(ops))
	x.keys = x.keys[:0]
	for i := range ops {
		if !slices.ContainsFunc(x.keys, func(e execKey) bool { return e.name == ops[i].Key }) {
			x.keys = append(x.keys, execKey{name: ops[i].Key, si: c.shardFor(ops[i].Key)})
		}
	}
	slices.SortFunc(x.keys, func(a, b execKey) int { return cmp.Compare(a.si, b.si) })
	x.names = x.names[:0]
	for _, e := range x.keys {
		x.names = append(x.names, e.name)
	}
	x.at = x.at[:0]
	for i := range ops {
		x.at = append(x.at, slices.Index(x.names, ops[i].Key))
	}
}

// inSections runs fn holding the sections of x's keys from the i-th on
// too: one table Section a shard, nested in ascending shard order, so every
// commit takes its stripes in one global (shard, stripe) order.
func (c *Cache) inSections(x *execPlan, i int, fn func()) {
	if i == len(x.keys) {
		fn()
		return
	}
	j := i + 1
	for j < len(x.keys) && x.keys[j].si == x.keys[i].si {
		j++
	}
	c.shards[x.keys[i].si].table.Section(x.names[i:j], func(sec generic.Section[string, item]) {
		for n := i; n < j; n++ {
			x.keys[n].sec = sec
		}
		c.inSections(x, j, fn)
	})
}

// write makes act of e's key with val under e's section, reporting false
// for a store that found no room.
func (e *execKey) write(val item, act generic.Action) (generic.Action, bool) {
	return e.sec.Update(e.name, func(item, bool) (item, generic.Action) { return val, act })
}

// commit is one run of x's transaction, holding every section: it loads
// each key, folding its split deltas into its cell, runs the ops in queue
// order, and writes and mirrors what they buffered, every store before any
// removal, so that only a store can fail (a key needing a slot its buckets
// lack) and undoing the stores before it leaves the shards as they were.
// It returns the index in x.keys of the key that found no room, or -1 once
// every write is applied.
func (c *Cache) commit(x *execPlan) int {
	for i := range x.keys {
		e := &x.keys[i]
		e.sec.Update(e.name, func(cur item, found bool) (item, generic.Action) {
			e.prev, e.back = cur, generic.Remove
			if found {
				e.back = generic.Store // in place: the key holds a live slot once stored
			}
			e.c = live(cur, found)
			c.split.drain(e.name, &e.pend, false)
			e.pend.foldInto(&e.c)
			return cur, generic.Keep
		})
	}
	for i := range x.ops {
		x.res[i] = applyToCell(&x.ops[i], &x.keys[x.at[i]].c)
	}
	for i := range x.keys {
		e := &x.keys[i]
		if e.c.write != OpSet {
			continue
		}
		e.put = newItem(c.nextVersion(), e.c.expireAt, e.name, e.c.val)
		if _, ok := e.write(e.put, generic.Store); !ok {
			for j := range i {
				if u := &x.keys[j]; u.c.write == OpSet {
					u.write(u.prev, u.back)
				}
			}
			return i
		}
	}
	for i := range x.keys {
		e := &x.keys[i]
		switch e.c.write {
		case OpSet:
			c.replEnqueue(e.name, e.put)
		case OpDel:
			if act, _ := e.write(item{}, generic.Remove); act == generic.Remove {
				c.replEnqueue(e.name, item{})
			}
		}
	}
	return -1
}
