package client

// Transaction verbs (docs/TRANSACTIONS.md): the commutative counters
// (INCR/DECR/ADD/MAXUPDATE), compare-and-set, and the MULTI…EXEC queue.
//
// None of these are idempotent — a retried INCR double-counts, a retried
// CAS or EXEC can observe (and clobber) its own first attempt's effects —
// so every pooled one-shot here passes canRetry=false to call and a
// transport failure surfaces to the caller instead of being retried. This
// holds even when Options.RetrySets opted SETs into retries: RetrySets
// covers last-writer-wins SETs only, never the read-modify-write verbs.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrTxnAborted is returned by ExecTxn when the server refused EXEC
// because a queue-time error poisoned the transaction.
var ErrTxnAborted = errors.New("client: transaction aborted")

// QueueIncr buffers an INCR (delta >= 0) or DECR-equivalent (delta < 0)
// request: key's integer value changes by delta, starting from 0 for a
// missing key.
func (c *Conn) QueueIncr(key string, delta int64) error {
	return c.queue(false, "INCR", key, strconv.FormatInt(delta, 10))
}

// QueueMaxUpdate buffers a MAXUPDATE request: key's integer value becomes
// max(current, val), treating a missing key as 0.
func (c *Conn) QueueMaxUpdate(key string, val int64) error {
	return c.queue(false, "MAXUPDATE", key, strconv.FormatInt(val, 10))
}

// QueueCAS buffers a CAS request: key's value becomes newVal only if it
// currently equals old. old is a single protocol token (no spaces);
// newVal may contain spaces but not newlines.
func (c *Conn) QueueCAS(key, old, newVal string) error {
	return c.queue(true, "CAS", key, old, newVal)
}

// Incr adds delta to key's integer value (negative deltas subtract).
func (c *Conn) Incr(key string, delta int64) error {
	_, err := c.roundTrip(c.QueueIncr(key, delta))
	return err
}

// MaxUpdate raises key's integer value to val if it is currently lower.
func (c *Conn) MaxUpdate(key string, val int64) error {
	_, err := c.roundTrip(c.QueueMaxUpdate(key, val))
	return err
}

// CAS stores newVal only if key currently holds old. It returns
// (stored, found): (true, true) on success, (false, true) on a value
// conflict, (false, false) when the key does not exist.
func (c *Conn) CAS(key, old, newVal string) (stored, found bool, err error) {
	return casResult(c.roundTrip(c.QueueCAS(key, old, newVal)))
}

// casResult projects a CAS reply onto (stored, found).
func casResult(rep Reply, err error) (stored, found bool, _ error) {
	return rep.Found, rep.Found || rep.Conflict, err
}

// Txn accumulates operations client-side for one MULTI…EXEC exchange.
// Nothing touches the network until Exec/ExecTxn, which ships the whole
// transaction — MULTI, every op, EXEC — in a single pipelined write. The
// zero value is ready to use; methods chain. A validation error sticks to
// the Txn and is returned by Exec, so call sites can build the whole
// transaction without per-op error checks.
type Txn struct {
	ops [][]string // each op's request-line words (checkRequest)
	err error
}

// NewTxn returns an empty transaction builder.
func NewTxn() *Txn { return &Txn{} }

// Err returns the first validation error, if any.
func (t *Txn) Err() error { return t.err }

// Keys returns the distinct keys the transaction touches, in first-use
// order (the cluster router uses this to pin the transaction to a node).
func (t *Txn) Keys() []string {
	seen := make(map[string]struct{}, len(t.ops))
	out := make([]string, 0, len(t.ops))
	for _, op := range t.ops {
		k := op[1]
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out
}

// add queues the request line of words after the checks Conn.queue
// makes of it.
func (t *Txn) add(store bool, words ...string) *Txn {
	if t.err == nil {
		if t.err = checkRequest(store, words); t.err == nil {
			t.ops = append(t.ops, words)
		}
	}
	return t
}

// Get queues a read; its EXEC result carries the value.
func (t *Txn) Get(key string) *Txn { return t.add(false, "GET", key) }

// Set queues a write (ttl 0 = no expiry).
func (t *Txn) Set(key, val string, ttl time.Duration) *Txn {
	if ttl <= 0 {
		return t.add(true, "SET", key, val)
	}
	return t.add(true, "SETEX", key, ttlMillis(ttl), val)
}

// Del queues a delete; its EXEC result is Found when the key existed.
func (t *Txn) Del(key string) *Txn { return t.add(false, "DEL", key) }

// Incr queues an increment by delta (negative subtracts; missing keys
// start at 0).
func (t *Txn) Incr(key string, delta int64) *Txn {
	return t.add(false, "INCR", key, strconv.FormatInt(delta, 10))
}

// MaxUpdate queues a monotonic raise to val.
func (t *Txn) MaxUpdate(key string, val int64) *Txn {
	return t.add(false, "MAXUPDATE", key, strconv.FormatInt(val, 10))
}

// CAS queues a compare-and-set; its EXEC result is Found on success,
// Conflict on a value mismatch, neither on a missing key.
func (t *Txn) CAS(key, old, newVal string) *Txn { return t.add(true, "CAS", key, old, newVal) }

// ExecTxn runs t as one MULTI…EXEC exchange and returns the per-op
// results in queue order. The ops execute atomically on the server: reads
// see a consistent snapshot and no other writer interleaves (per-op
// failures like a CAS conflict are reported in the results, not by error).
// The exchange is a single write followed by a deterministic reply
// sequence, so a transport failure mid-exchange breaks the Conn exactly
// like a failed Flush would.
func (c *Conn) ExecTxn(t *Txn) ([]Reply, error) {
	if t.err != nil || len(t.ops) == 0 {
		return nil, t.err
	}
	var replies []Reply
	err := c.exchange("MULTI", 0, func() {
		c.w.WriteString("MULTI\n")
		for _, op := range t.ops {
			writeRequest(c.w, op)
		}
		// The trace rides on the EXEC line: that is the request whose span
		// covers the transaction's section wait, commit and any room made
		// for a key that found none.
		c.writeTrace()
		c.w.WriteString("EXEC\n")
	}, func() error {
		// Reply sequence: MULTI ack, one line per queued op, then either an
		// "EXEC <n>" header followed by n results or an ERR for the whole
		// transaction. A refused MULTI or a queue-time rejection surfaces on
		// its own line; the count is fixed either way, so all of them are
		// read before any is reported and the stream stays in sync.
		var refused, queueErr error
		for i := 0; i <= len(t.ops); i++ {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			switch {
			case i == 0 && line != "OK":
				refused = c.unexpected(line)
			case i > 0 && line != "QUEUED" && queueErr == nil:
				queueErr = c.unexpected(line)
			}
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		count, ok := strings.CutPrefix(line, "EXEC ")
		switch {
		case refused != nil:
			return refused
		case !ok && queueErr != nil:
			return fmt.Errorf("%w: %w", ErrTxnAborted, queueErr)
		case !ok:
			return c.unexpected(line)
		}
		if n, err := strconv.Atoi(count); err != nil || n != len(t.ops) {
			return c.fail(fmt.Errorf("client: bad EXEC header %q for %d ops", line, len(t.ops)))
		}
		out := make([]Reply, len(t.ops))
		for i := range out {
			if out[i], err = c.readReply(); err != nil {
				return c.fail(err)
			}
		}
		replies = out
		return nil
	})
	return replies, err
}

// Incr is a pooled one-shot INCR/DECR. Never retried: a lost ack leaves
// the increment's fate unknown, and re-running it would double-count.
func (p *Pool) Incr(key string, delta int64) error {
	_, err := p.oneShot(false, "", func(c *Conn) error { return c.QueueIncr(key, delta) })
	return err
}

// MaxUpdate is a pooled one-shot MAXUPDATE. Never retried (same
// non-idempotence rule as Incr; a raced retry can resurrect a lower max
// observed by other readers in between).
func (p *Pool) MaxUpdate(key string, val int64) error {
	_, err := p.oneShot(false, "", func(c *Conn) error { return c.QueueMaxUpdate(key, val) })
	return err
}

// CAS is a pooled one-shot compare-and-set. Never retried: after a lost
// ack the first attempt may have committed, and retrying would report a
// spurious conflict — or worse, succeed against its own write.
func (p *Pool) CAS(key, old, newVal string) (stored, found bool, err error) {
	return casResult(p.oneShot(false, "", func(c *Conn) error { return c.QueueCAS(key, old, newVal) }))
}

// ExecTxn runs t through a pooled connection, exactly once (MULTI…EXEC is
// the least idempotent exchange the protocol has).
func (p *Pool) ExecTxn(t *Txn) ([]Reply, error) {
	return call(p, false, "", func(c *Conn) ([]Reply, error) { return c.ExecTxn(t) })
}
