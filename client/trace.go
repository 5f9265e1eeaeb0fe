package client

// Client-side request tracing (docs/OBSERVABILITY.md). A trace ID is an
// opaque token the client mints and prepends to request lines as
// "TRACE <id> "; the server stamps it on slow-op logs, flight-recorder
// entries, and the cuckood_slow_trace_seconds exemplar series, and
// forwards it across MIGRATE→HANDOFF hops — so one user-visible request
// keeps one ID across every connection, retry, spill, and node it
// touches.

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxTraceIDLen mirrors the server's limit on TRACE tokens (codec.go).
const maxTraceIDLen = 64

var traceIDGen struct {
	mu  sync.Mutex
	rng splitmix64
}

// NewTraceID mints a 16-hex-digit trace ID. IDs are process-unique with
// overwhelming probability (64 random bits), cheap, and wire-safe; callers
// that already have a correlation token (a span ID, a request UUID) can
// pass their own to SetTrace instead.
func NewTraceID() string {
	traceIDGen.mu.Lock()
	if traceIDGen.rng.state == 0 {
		traceIDGen.rng.state = uint64(time.Now().UnixNano())
	}
	id := traceIDGen.rng.next()
	traceIDGen.mu.Unlock()
	var buf [16]byte
	const hex = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = hex[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

// SetTrace attaches a trace ID to the connection: every request queued
// afterwards carries a "TRACE <id> " wire prefix until the ID is replaced
// or cleared with SetTrace(""). The ID must be a single protocol token of
// at most 64 bytes.
func (c *Conn) SetTrace(id string) error {
	if id != "" && (len(id) > maxTraceIDLen || notToken(id)) {
		return fmt.Errorf("client: invalid trace ID %q (one token, at most %d bytes)", id, maxTraceIDLen)
	}
	c.trace = id
	return nil
}

// Trace returns the connection's current trace ID ("" when untraced).
func (c *Conn) Trace() string { return c.trace }

// writeTrace emits the TRACE prefix for one request line, if an ID is set.
func (c *Conn) writeTrace() {
	if c.trace != "" {
		c.w.WriteString("TRACE ")
		c.w.WriteString(c.trace)
		c.w.WriteByte(' ')
	}
}

// HotKey is one entry of the server's hot-key top-K sketch: an
// approximate touch count for one of the most frequently requested keys.
// Counts come from a space-saving sketch over sampled requests, so they
// overestimate by at most the sketch's per-key error.
type HotKey struct {
	Key   string
	Count uint64
}

// HotKeys fetches the server's n hottest keys (n <= 0 asks for the
// server default of 10). Like Stats, it needs an empty pipeline: the
// multi-line reply cannot interleave with pending request replies.
func (c *Conn) HotKeys(n int) ([]HotKey, error) {
	req := "HOTKEYS"
	if n > 0 {
		req += " " + strconv.Itoa(n)
	}
	var out []HotKey
	err := c.block(req, "HOTKEY ", true, func(count, key string) error {
		n, err := strconv.ParseUint(count, 10, 64)
		out = append(out, HotKey{Key: key, Count: n})
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GetTraced is Get1 with a trace ID: every attempt — including retries
// after transport failures — carries the same ID, so the server-side
// flight records of a retried request correlate.
func (p *Pool) GetTraced(key, trace string) (string, bool, error) {
	rep, err := p.oneShot(true, trace, func(c *Conn) error { return c.QueueGet(key) })
	return rep.Value, rep.Found, err
}

// SetTraced is Set with a trace ID (same retry policy: only when
// Options.RetrySets opted SETs in). All attempts share the ID.
func (p *Pool) SetTraced(key, val string, ttl time.Duration, trace string) error {
	_, err := p.oneShot(p.opt.RetrySets, trace, func(c *Conn) error { return c.QueueSet(key, val, ttl) })
	return err
}

// HotKeys is the pooled one-shot form of Conn.HotKeys.
func (p *Pool) HotKeys(n int) ([]HotKey, error) {
	return call(p, true, "", func(c *Conn) ([]HotKey, error) { return c.HotKeys(n) })
}

// GetTraced is Cluster.Get with a trace ID: the same routed read, every
// node it touches seeing the one ID, so a cross-node read shows up as one
// trace on both nodes' recorders.
func (cl *Cluster) GetTraced(key, trace string) (string, bool, error) {
	return cl.read(key, trace)
}

// SetTraced is Cluster.Set with a trace ID carried across the spill to
// the alternate node: the same routed write.
func (cl *Cluster) SetTraced(key, val string, ttl time.Duration, trace string) error {
	_, err := cl.write(key, val, ttl, trace)
	return err
}

// HotKeys merges every node's top-K sketch into one cluster-wide ranking
// of up to n keys. A key hot on several nodes (after spills or
// migrations) has its per-node counts summed. The first node error is
// returned after querying all nodes; partial results are still ranked.
func (cl *Cluster) HotKeys(n int) ([]HotKey, error) {
	counts := make(map[string]uint64)
	var firstErr error
	for _, node := range cl.nodes {
		items, err := node.pool.HotKeys(n)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("hotkeys %s: %w", node.addr, err)
			}
			continue
		}
		for _, it := range items {
			counts[it.Key] += it.Count
		}
	}
	out := make([]HotKey, 0, len(counts))
	for k, c := range counts {
		out = append(out, HotKey{Key: k, Count: c})
	}
	sortHotKeys(out)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, firstErr
}

// sortHotKeys orders by count descending, then key ascending for
// deterministic ties.
func sortHotKeys(hk []HotKey) {
	slices.SortFunc(hk, func(a, b HotKey) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return strings.Compare(a.Key, b.Key)
	})
}
