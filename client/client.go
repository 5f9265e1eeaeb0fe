// Package client is a Go client for the cuckood cache protocol
// (docs/PROTOCOL.md). Conn is a single pipelined connection: Queue* calls
// buffer requests and Flush sends them in one write and reads all the
// responses back, amortizing syscalls exactly as the server's batch loop
// does on its side. Pool keeps a set of Conns for concurrent callers and
// offers one-shot convenience methods.
//
// The pool is also the client's fault-tolerance layer (docs/ROBUSTNESS.md):
// dial and per-operation deadlines, health-checked connection checkout,
// exponential backoff with full jitter and a retry budget for idempotent
// operations, and a per-address circuit breaker that fast-fails while the
// server is unreachable. A Conn that suffers a transport error mid-pipeline
// is marked broken and refuses further use — replies could otherwise be
// attributed to the wrong request — so it is discarded, never pooled.
package client

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cuckoohash/internal/connbuf"
	"cuckoohash/internal/obs"
)

// ErrClosed is returned when using a closed Conn or Pool.
var ErrClosed = errors.New("client: closed")

// ErrBrokenConn is wrapped into every error returned by a Conn after a
// transport failure left its pipeline in an undefined state. The first
// failure is sticky: all subsequent operations on the Conn fail with the
// same error instead of reading desynchronized replies.
var ErrBrokenConn = errors.New("client: connection broken")

// ServerError is an ERR response from the daemon.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }

// Reply is the response to one queued request.
type Reply struct {
	// Found is true for GET/TTL hits and DEL of a present key, and for
	// every successful SET.
	Found bool
	// Value is the GET value (hits only).
	Value string
	// TTL is the remaining lifetime for TTL hits; -1 means no expiry.
	TTL time.Duration
	// Conflict is true when a CAS was rejected because the stored value
	// differed from the expected one (reply CONFLICT).
	Conflict bool
	// Ver is the entry's replication version word, carried by VALUEV
	// (GETV hits), VER (SETV/SETL acks), and STALE replies. Clients use
	// it as a monotonic floor: a replica copy with a lower version than
	// one already observed for the key must not be trusted.
	Ver uint64
	// Lease is the fill token from a granted LEASE (0 = not granted);
	// LeaseTTL is how long the server will honor it.
	Lease    uint64
	LeaseTTL time.Duration
	// Wait is the server's back-off hint after a lost lease race.
	Wait time.Duration
	// Stale marks a STALE reply: Value/Ver are an expired copy the
	// server is willing to serve while a fill is in flight.
	Stale bool
	// Err is a per-request server error (*ServerError); transport errors
	// are returned by Flush itself instead.
	Err error
}

// Conn is one pipelined protocol connection. It is not safe for
// concurrent use; use a Pool to share connections between goroutines.
type Conn struct {
	nc        net.Conn
	r         *connbuf.Reader
	w         *connbuf.Writer
	pending   []opCode
	replies   []Reply
	closed    bool
	broken    error         // sticky transport failure; nil while healthy
	ioTimeout time.Duration // per-Flush deadline; 0 = none
	trace     string        // wire trace ID prefixed to queued requests; "" = untraced
}

type opCode uint8

const (
	opGet opCode = iota
	opSet
	opDel
	opTTL
	opIncr  // INCR/DECR/ADD/MAXUPDATE: all reply OK or ERR
	opCAS   // OK, MISS, or CONFLICT
	opGetV  // VALUEV, MISS, or ERR
	opSetV  // VER or ERR
	opLease // VALUEV, LEASE, STALE, WAIT, or ERR
	opSetL  // VER, MISS (fill rejected), or ERR
)

// Dial connects to a cuckood server with no deadlines configured.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, 0, 0)
}

// DialTimeout connects to a cuckood server, bounding the dial by
// dialTimeout and every subsequent Flush (write plus each reply read) by
// ioTimeout. Zero disables the respective deadline. An operation that
// trips the deadline fails the Conn permanently, exactly like any other
// transport error.
func DialTimeout(addr string, dialTimeout, ioTimeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return newConn(nc, ioTimeout), nil
}

func newConn(nc net.Conn, ioTimeout time.Duration) *Conn {
	return &Conn{
		nc:        nc,
		r:         connbuf.NewReader(nc, math.MaxInt), // replies of any length
		w:         connbuf.NewWriter(nc),
		ioTimeout: ioTimeout,
	}
}

// Err returns the Conn's sticky transport error, or nil while healthy.
func (c *Conn) Err() error { return c.broken }

// fail records the first transport error, makes it sticky, and returns it.
// The pipeline state is undefined after a mid-flush failure — some requests
// may have executed, some replies may be half-read — so the only safe
// behavior is to refuse every further operation.
func (c *Conn) fail(err error) error {
	if c.broken == nil {
		c.broken = fmt.Errorf("%w: %w", ErrBrokenConn, err)
		c.pending = c.pending[:0]
	}
	return c.broken
}

// Close closes the connection.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

func validKey(key string) error {
	if key == "" || len(key) > 250 || notToken(key) {
		return fmt.Errorf("client: invalid key %q", key)
	}
	return nil
}

// hasNewline reports whether s holds a CR or an LF: two IndexByte scans,
// which run in assembly, where strings.ContainsAny walks s a byte at a
// time against its set.
func hasNewline(s string) bool {
	return strings.IndexByte(s, '\n') >= 0 || strings.IndexByte(s, '\r') >= 0
}

// notToken reports whether s holds a space or a newline, so that it cannot
// be sent as one protocol token.
func notToken(s string) bool {
	return strings.IndexByte(s, ' ') >= 0 || hasNewline(s)
}

// queue buffers one request line "<verb> <key>[ <arg>...]" whose reply
// will be read as class op; every Queue* method is this encoder plus its
// verb's own argument checks.
func (c *Conn) queue(op opCode, verb, key string, args ...string) error {
	if c.broken != nil {
		return c.broken
	}
	if err := validKey(key); err != nil {
		return err
	}
	c.writeTrace()
	c.w.WriteString(verb)
	c.w.WriteByte(' ')
	c.w.WriteString(key)
	for _, a := range args {
		c.w.WriteByte(' ')
		c.w.WriteString(a)
	}
	c.w.WriteByte('\n')
	c.pending = append(c.pending, op)
	return nil
}

// queueStore buffers a SET-shaped request: args in wire order, the last
// of them the value, which runs to the end of the line and so must not
// contain a newline.
func (c *Conn) queueStore(op opCode, verb, key string, args ...string) error {
	if hasNewline(args[len(args)-1]) {
		return fmt.Errorf("client: value for %q contains newline", key)
	}
	return c.queue(op, verb, key, args...)
}

// ttlMillis renders ttl as the wire's whole-millisecond word, rounding
// up; ttl <= 0 is "0" (no expiry).
func ttlMillis(ttl time.Duration) string {
	if ttl <= 0 {
		return "0"
	}
	return strconv.FormatInt(int64((ttl+time.Millisecond-1)/time.Millisecond), 10)
}

// QueueGet buffers a GET request.
func (c *Conn) QueueGet(key string) error { return c.queue(opGet, "GET", key) }

// QueueSet buffers a SET (ttl == 0) or SETEX request. The value must not
// contain newlines; ttl is rounded up to a whole millisecond.
func (c *Conn) QueueSet(key, val string, ttl time.Duration) error {
	if ttl <= 0 {
		return c.queueStore(opSet, "SET", key, val)
	}
	return c.queueStore(opSet, "SETEX", key, ttlMillis(ttl), val)
}

// QueueDel buffers a DEL request.
func (c *Conn) QueueDel(key string) error { return c.queue(opDel, "DEL", key) }

// QueueGetV buffers a GETV request: a GET whose hit reply carries the
// entry's replication version word.
func (c *Conn) QueueGetV(key string) error { return c.queue(opGetV, "GETV", key) }

// QueueSetV buffers a SETV request: a SET acknowledged with the write's
// version word (ttl 0 = no expiry; rounded up to a whole millisecond).
func (c *Conn) QueueSetV(key, val string, ttl time.Duration) error {
	return c.queueStore(opSetV, "SETV", key, ttlMillis(ttl), val)
}

// QueueLease buffers a LEASE request: a GET that, on a miss, enters the
// server's fill-lease protocol instead of returning MISS. The reply is
// a VALUEV hit, a granted LEASE token, a STALE copy, or a WAIT hint.
func (c *Conn) QueueLease(key string) error { return c.queue(opLease, "LEASE", key) }

// QueueSetLease buffers a SETL request: the lease winner's fill,
// publishing val under the token a LEASE grant handed out. A MISS reply
// means the fill lost (the lease expired or a newer write invalidated
// it) and nothing was stored.
func (c *Conn) QueueSetLease(key string, token uint64, val string, ttl time.Duration) error {
	if token == 0 {
		return fmt.Errorf("client: zero lease token for %q", key)
	}
	return c.queueStore(opSetL, "SETL", key, strconv.FormatUint(token, 16), ttlMillis(ttl), val)
}

// QueueTTL buffers a TTL query.
func (c *Conn) QueueTTL(key string) error { return c.queue(opTTL, "TTL", key) }

// Pending returns the number of queued, unflushed requests.
func (c *Conn) Pending() int { return len(c.pending) }

// Flush sends every queued request in one write and reads their replies
// in order. The returned slice is reused by the next Flush. A non-nil
// error is a transport failure; per-request failures are Reply.Err. After
// a transport failure the Conn is broken: the stream cannot be
// resynchronized, so every later call returns the same sticky error.
func (c *Conn) Flush() ([]Reply, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.broken != nil {
		return nil, c.broken
	}
	if len(c.pending) == 0 {
		return nil, nil
	}
	if c.ioTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.ioTimeout))
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.fail(err)
	}
	c.replies = c.replies[:0]
	for _, op := range c.pending {
		if c.ioTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(c.ioTimeout))
		}
		rep, err := c.readReply(op)
		if err != nil {
			return nil, c.fail(err)
		}
		c.replies = append(c.replies, rep)
	}
	c.pending = c.pending[:0]
	if c.ioTimeout > 0 {
		c.nc.SetDeadline(time.Time{})
	}
	return c.replies, nil
}

func (c *Conn) readReply(op opCode) (Reply, error) {
	line, err := c.readLine()
	if err != nil {
		return Reply{}, err
	}
	switch {
	case line == "OK":
		return Reply{Found: true}, nil
	case line == "MISS":
		return Reply{}, nil
	case line == "CONFLICT":
		return Reply{Conflict: true}, nil
	case strings.HasPrefix(line, "VALUE "):
		return Reply{Found: true, Value: line[len("VALUE "):]}, nil
	case strings.HasPrefix(line, "TTL "):
		ms, perr := strconv.ParseInt(line[len("TTL "):], 10, 64)
		if perr != nil {
			return Reply{}, fmt.Errorf("client: malformed reply %q", line)
		}
		if ms < 0 {
			return Reply{Found: true, TTL: -1}, nil
		}
		return Reply{Found: true, TTL: time.Duration(ms) * time.Millisecond}, nil
	case strings.HasPrefix(line, "VALUEV "):
		ver, rest, perr := cutUint(line[len("VALUEV "):], 10)
		if perr != nil {
			return Reply{}, fmt.Errorf("client: malformed reply %q", line)
		}
		return Reply{Found: true, Ver: ver, Value: rest}, nil
	case strings.HasPrefix(line, "VER "):
		ver, perr := strconv.ParseUint(line[len("VER "):], 10, 64)
		if perr != nil {
			return Reply{}, fmt.Errorf("client: malformed reply %q", line)
		}
		return Reply{Found: true, Ver: ver}, nil
	case strings.HasPrefix(line, "LEASE "):
		tokTok, msTok, ok := strings.Cut(line[len("LEASE "):], " ")
		token, perr := strconv.ParseUint(tokTok, 16, 64)
		if !ok || perr != nil || token == 0 {
			return Reply{}, fmt.Errorf("client: malformed reply %q", line)
		}
		ms, perr := strconv.ParseInt(msTok, 10, 64)
		if perr != nil {
			return Reply{}, fmt.Errorf("client: malformed reply %q", line)
		}
		return Reply{Lease: token, LeaseTTL: time.Duration(ms) * time.Millisecond}, nil
	case strings.HasPrefix(line, "WAIT "):
		ms, perr := strconv.ParseInt(line[len("WAIT "):], 10, 64)
		if perr != nil {
			return Reply{}, fmt.Errorf("client: malformed reply %q", line)
		}
		return Reply{Wait: time.Duration(ms) * time.Millisecond}, nil
	case strings.HasPrefix(line, "STALE "):
		ver, rest, perr := cutUint(line[len("STALE "):], 10)
		if perr != nil {
			return Reply{}, fmt.Errorf("client: malformed reply %q", line)
		}
		return Reply{Stale: true, Ver: ver, Value: rest}, nil
	case line == "STALE":
		// The bare mirror-rejection form (REPLSET/REPLDEL); ordinary
		// clients never see it, but parsing it keeps the codec total.
		return Reply{Stale: true}, nil
	case strings.HasPrefix(line, "ERR "):
		return Reply{Err: &ServerError{Msg: line[len("ERR "):]}}, nil
	}
	return Reply{}, fmt.Errorf("client: unexpected reply %q for op %d", line, op)
}

// cutUint splits "<uint> <rest>" where rest may contain spaces, parsing
// the leading integer in the given base.
func cutUint(s string, base int) (uint64, string, error) {
	numTok, rest, _ := strings.Cut(s, " ")
	n, err := strconv.ParseUint(numTok, base, 64)
	return n, rest, err
}

// roundTrip completes a one-shot verb: queued is the result of its
// Queue* call, the reply is the single one Flush reads back, and a
// server-side ERR is folded into the returned error (the Reply then holds
// nothing else). Every one-shot method is a Queue* call, this, and a
// projection of the Reply's fields.
func (c *Conn) roundTrip(queued error) (Reply, error) {
	if queued != nil {
		return Reply{}, queued
	}
	reps, err := c.Flush()
	if err != nil {
		return Reply{}, err
	}
	if len(reps) != 1 {
		return Reply{}, fmt.Errorf("client: expected 1 reply, got %d", len(reps))
	}
	return reps[0], reps[0].Err
}

// Get fetches key.
func (c *Conn) Get(key string) (string, bool, error) {
	rep, err := c.roundTrip(c.QueueGet(key))
	return rep.Value, rep.Found, err
}

// Set stores key=val with an optional TTL (0 = no expiry).
func (c *Conn) Set(key, val string, ttl time.Duration) error {
	_, err := c.roundTrip(c.QueueSet(key, val, ttl))
	return err
}

// Del removes key, reporting whether it was present.
func (c *Conn) Del(key string) (bool, error) {
	rep, err := c.roundTrip(c.QueueDel(key))
	return rep.Found, err
}

// GetV fetches key with its replication version word.
func (c *Conn) GetV(key string) (val string, ver uint64, found bool, err error) {
	rep, err := c.roundTrip(c.QueueGetV(key))
	return rep.Value, rep.Ver, rep.Found, err
}

// SetV stores key=val (ttl 0 = no expiry) and returns the version word
// the server stored with this very write (never 0).
func (c *Conn) SetV(key, val string, ttl time.Duration) (uint64, error) {
	rep, err := c.roundTrip(c.QueueSetV(key, val, ttl))
	return rep.Ver, err
}

// Lease runs one round of the miss-lease protocol for key. Inspect the
// Reply: Found means a live hit (Value/Ver are set), Lease != 0 means
// this caller won the fill and must publish via SetLease, Stale means
// the server offered an expired copy, and otherwise Wait is the retry
// hint. Pool.GetOrFill drives the whole loop.
func (c *Conn) Lease(key string) (Reply, error) {
	return c.roundTrip(c.QueueLease(key))
}

// SetLease publishes a lease fill. filled reports whether the server
// accepted it; a false return means the token lost to a newer write or
// expiry and nothing was stored.
func (c *Conn) SetLease(key string, token uint64, val string, ttl time.Duration) (ver uint64, filled bool, err error) {
	rep, err := c.roundTrip(c.QueueSetLease(key, token, val, ttl))
	return rep.Ver, rep.Found, err
}

// TTL returns key's remaining lifetime (-1 if persistent).
func (c *Conn) TTL(key string) (time.Duration, bool, error) {
	rep, err := c.roundTrip(c.QueueTTL(key))
	return rep.TTL, rep.Found, err
}

// exchange is the one out-of-pipeline request/reply step, behind every
// verb whose reply is not one line per queued request (STATS, CLUSTER,
// HOTKEYS, MIGRATE, MULTI…EXEC). It refuses a closed, broken or non-empty
// pipeline, arms one deadline for the whole exchange (ioTimeout, raised to
// floor for verbs that legitimately outlive a single GET), sends what
// write buffered and lets read consume the reply. A transport failure on
// either side breaks the Conn; what read makes of the lines is its own.
func (c *Conn) exchange(verb string, floor time.Duration, write func(), read func() error) error {
	switch {
	case c.closed:
		return ErrClosed
	case c.broken != nil:
		return c.broken
	case len(c.pending) > 0:
		return fmt.Errorf("client: %s with requests still queued", verb)
	}
	if c.ioTimeout > 0 {
		c.nc.SetDeadline(time.Now().Add(max(c.ioTimeout, floor)))
		defer c.nc.SetDeadline(time.Time{})
	}
	write()
	if err := c.w.Flush(); err != nil {
		return c.fail(err)
	}
	return read()
}

// readLine reads one reply line, of a Flush or an exchange, without
// interpreting it; an error is a transport failure and has already broken
// the Conn.
func (c *Conn) readLine() (string, error) {
	line, err := c.r.ReadLine()
	if err != nil {
		return "", c.fail(err)
	}
	return strings.TrimRight(string(line), "\r\n"), nil
}

// unexpected is the error for a reply line an exchange has no other
// reading of. The server's ERR is a *ServerError and leaves the Conn
// usable — which is how "ERR busy" on a shed connection stays a busy
// rejection whatever verb met it; anything else is a protocol fault that
// breaks the Conn, as it does in Flush.
func (c *Conn) unexpected(line string) error {
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		return &ServerError{Msg: msg}
	}
	return c.fail(fmt.Errorf("client: unexpected reply %q", line))
}

// block runs the exchange whose reply is an END-terminated list of
// "<tag> <a> <b…>" lines (STATS, CLUSTER, HOTKEYS), handing each line's
// two fields to each.
func (c *Conn) block(req, tag string, traced bool, each func(a, b string) error) error {
	return c.exchange(req, 0, func() {
		if traced {
			c.writeTrace()
		}
		c.w.WriteString(req)
		c.w.WriteByte('\n')
	}, func() error {
		for {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			if line == "END" {
				return nil
			}
			rest, tagged := strings.CutPrefix(line, tag)
			a, b, ok := strings.Cut(rest, " ")
			if !tagged || !ok || each(a, b) != nil {
				return c.unexpected(line)
			}
		}
	})
}

// info runs a block exchange whose lines are name/value pairs.
func (c *Conn) info(req, tag string) (map[string]string, error) {
	out := make(map[string]string)
	err := c.block(req, tag, false, func(name, val string) error {
		out[name] = val
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the server's STATS map.
func (c *Conn) Stats() (map[string]string, error) { return c.info("STATS", "STAT ") }

// Health-check failure reasons, indexed into Pool's per-reason counters
// and exported as cuckood_client_health_check_failures_total{reason}.
const (
	healthBroken   = iota // sticky transport error from an earlier failure
	healthClosed          // the Conn was closed while pooled
	healthBuffered        // unsolicited buffered bytes: pipeline desync
	healthSocket          // the socket probe saw EOF/error (server went away)
	healthReasonCount
)

// healthReasons names each failure class for the metric's reason label.
var healthReasons = [healthReasonCount]string{"broken", "closed", "buffered", "socket"}

// healthCheck probes a pooled idle connection before it is handed out:
// broken or closed conns, unsolicited buffered bytes (pipeline desync),
// and sockets the server has since closed are all rejected, with the
// failure class reported for per-reason accounting. The probe is one
// non-blocking MSG_PEEK syscall (see probeSocket), so a healthy checkout
// stays cheap.
func (c *Conn) healthCheck() (int, error) {
	if c.broken != nil {
		return healthBroken, c.broken
	}
	if c.closed {
		return healthClosed, ErrClosed
	}
	if c.r.Buffered() > 0 {
		return healthBuffered, c.fail(errors.New("unsolicited data buffered"))
	}
	if sc, ok := c.nc.(syscall.Conn); ok {
		if err := probeSocket(sc); err != nil {
			return healthSocket, c.fail(err)
		}
	}
	return 0, nil
}

// Options configures a Pool's sizing and fault-tolerance behavior. The
// zero value of every field selects a safe default; in particular retries
// and the circuit breaker are opt-in (MaxRetries / BreakerThreshold zero
// keep them off), so NewPool's historical behavior is unchanged.
type Options struct {
	// Size is the maximum number of concurrent connections (default 1).
	Size int
	// DialTimeout bounds each dial (default 5s; negative = no limit).
	DialTimeout time.Duration
	// IOTimeout bounds each Flush write and reply read (0 = none).
	IOTimeout time.Duration
	// MaxRetries is how many times an idempotent one-shot op (Get1, Del
	// — and Set when RetrySets is set) is retried after a transport
	// failure or busy rejection. 0 disables retries.
	MaxRetries int
	// RetrySets opts SET into the retry policy. A retried SET re-executes
	// on the server if the ack was lost; that is idempotent for
	// last-writer-wins caching but not for every workload, hence opt-in.
	RetrySets bool
	// BackoffBase and BackoffMax bound the full-jitter exponential backoff
	// between retries (defaults 2ms and 250ms).
	BackoffBase, BackoffMax time.Duration
	// RetryBudgetMax caps the retry token bucket (default 20): each retry
	// spends one token, each success refills 0.1, so sustained failure
	// degrades to single attempts instead of amplifying load.
	RetryBudgetMax float64
	// BreakerThreshold is how many consecutive transport failures open the
	// circuit breaker (0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// a half-open probe (default 1s).
	BreakerCooldown time.Duration
	// Seed makes retry jitter deterministic for tests (0 = time-seeded).
	Seed uint64
	// OnBreakerOpen, when set, is called each time the circuit breaker
	// trips open (closed→open or a failed half-open probe). It runs on the
	// goroutine that recorded the tripping failure, outside the breaker's
	// lock; use it to dump diagnostics the moment an address goes dark.
	OnBreakerOpen func()
	// DialFunc overrides the transport dial, e.g. to inject faults in
	// chaos tests. It receives the dial timeout already resolved.
	DialFunc func(addr string, timeout time.Duration) (net.Conn, error)
}

func (o *Options) setDefaults() {
	if o.Size < 1 {
		o.Size = 1
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	} else if o.DialTimeout < 0 {
		o.DialTimeout = 0
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.DialFunc == nil {
		o.DialFunc = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
}

// Pool is a fixed-size pool of Conns safe for concurrent use. Get blocks
// when every connection is checked out, bounding the daemon's connection
// load to Size regardless of caller concurrency. Idle connections are
// health-checked at checkout and broken ones replaced, so a server restart
// costs each pooled connection one discard, not one caller error.
type Pool struct {
	addr string
	opt  Options
	mu   sync.Mutex
	free []*Conn
	sem  chan struct{}
	done bool

	brk     *breaker
	backoff *backoff
	budget  *retryBudget

	dials          atomic.Uint64 // connections dialed over the pool's lifetime
	dialFails      atomic.Uint64 // dial attempts that failed
	discards       atomic.Uint64 // connections closed instead of returned
	healthDiscards atomic.Uint64 // idle connections failing the checkout health check
	retries        atomic.Uint64 // op retries performed
	budgetDenied   atomic.Uint64 // retries suppressed by an empty budget
	timeouts       atomic.Uint64 // transport errors that were deadline timeouts
	busyErrs       atomic.Uint64 // server busy rejections observed
	leaseWaits     atomic.Uint64 // lease-protocol rounds spent waiting on another client's fill
	leaseFills     atomic.Uint64 // fills published after winning a lease
	leaseStale     atomic.Uint64 // stale copies accepted while a fill was in flight

	// healthFails counts checkout health-check failures by reason,
	// indexed by the health* constants.
	healthFails [healthReasonCount]atomic.Uint64
}

// PoolStats is a point-in-time snapshot of a Pool's connection accounting,
// for export on a metrics endpoint: InUse/Idle/BreakerState are gauges,
// the rest are cumulative counters.
type PoolStats struct {
	// Capacity is the pool's maximum concurrent connection count.
	Capacity int
	// InUse is the number of connections currently checked out.
	InUse int
	// Idle is the number of connections parked in the free list.
	Idle int
	// Dials counts connections dialed over the pool's lifetime.
	Dials uint64
	// DialFailures counts dial attempts that failed.
	DialFailures uint64
	// Discards counts connections closed rather than pooled (transport
	// errors, unflushed requests, pool shutdown).
	Discards uint64
	// HealthCheckDiscards counts idle connections rejected by the checkout
	// health check (already counted in Discards as well).
	HealthCheckDiscards uint64
	// HealthCheckFailures breaks HealthCheckDiscards down by failure class
	// ("broken", "closed", "buffered", "socket").
	HealthCheckFailures map[string]uint64
	// RetryBudgetTokens is the retry token bucket's current level (its
	// configured max while retries are disabled — nothing is spending).
	RetryBudgetTokens float64
	// Retries counts operation retry attempts.
	Retries uint64
	// RetryBudgetDenied counts retries suppressed by an exhausted budget.
	RetryBudgetDenied uint64
	// Timeouts counts transport failures that were deadline timeouts.
	Timeouts uint64
	// BusyRejections counts server "ERR busy" overload rejections.
	BusyRejections uint64
	// LeaseWaits counts GetOrFill rounds spent waiting on another
	// client's in-flight fill; LeaseFills counts fills published after
	// winning a lease; LeaseStaleServed counts stale copies accepted.
	LeaseWaits, LeaseFills, LeaseStaleServed uint64
	// BreakerState is the circuit breaker position ("closed", "open",
	// "half-open").
	BreakerState BreakerState
	// BreakerOpens, BreakerCloses, and BreakerDenied count breaker trips,
	// recoveries, and operations fast-failed while open.
	BreakerOpens, BreakerCloses, BreakerDenied uint64
}

// Stats returns the pool's current connection accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	idle := len(p.free)
	p.mu.Unlock()
	state, opens, closes, denied := p.brk.snapshot()
	hf := make(map[string]uint64, healthReasonCount)
	for i, name := range healthReasons {
		hf[name] = p.healthFails[i].Load()
	}
	// A checked-out connection holds a sem slot; idle ones do not.
	return PoolStats{
		Capacity:            cap(p.sem),
		InUse:               len(p.sem),
		Idle:                idle,
		Dials:               p.dials.Load(),
		DialFailures:        p.dialFails.Load(),
		Discards:            p.discards.Load(),
		HealthCheckDiscards: p.healthDiscards.Load(),
		HealthCheckFailures: hf,
		RetryBudgetTokens:   p.budgetLevel(),
		Retries:             p.retries.Load(),
		RetryBudgetDenied:   p.budgetDenied.Load(),
		Timeouts:            p.timeouts.Load(),
		BusyRejections:      p.busyErrs.Load(),
		LeaseWaits:          p.leaseWaits.Load(),
		LeaseFills:          p.leaseFills.Load(),
		LeaseStaleServed:    p.leaseStale.Load(),
		BreakerState:        state,
		BreakerOpens:        opens,
		BreakerCloses:       closes,
		BreakerDenied:       denied,
	}
}

// NewPool creates a pool of up to size lazily dialed connections with
// default options (no retries, no breaker).
func NewPool(addr string, size int) *Pool {
	return NewPoolWith(addr, Options{Size: size})
}

// NewPoolWith creates a pool with explicit fault-tolerance options.
func NewPoolWith(addr string, opt Options) *Pool {
	opt.setDefaults()
	p := &Pool{
		addr: addr,
		opt:  opt,
		sem:  make(chan struct{}, opt.Size),
		brk: &breaker{
			threshold: opt.BreakerThreshold,
			cooldown:  opt.BreakerCooldown,
			onOpen:    opt.OnBreakerOpen,
		},
	}
	if opt.MaxRetries > 0 {
		p.backoff = newBackoff(opt.BackoffBase, opt.BackoffMax, opt.Seed)
		p.budget = newRetryBudget(opt.RetryBudgetMax)
	}
	return p
}

// Get checks a connection out of the pool, dialing if none is idle. It
// fails fast with ErrCircuitOpen while the breaker is open, and discards
// (then replaces) idle connections that fail the health check.
func (p *Pool) Get() (*Conn, error) {
	if !p.brk.allow() {
		return nil, ErrCircuitOpen
	}
	p.sem <- struct{}{}
	for {
		p.mu.Lock()
		if p.done {
			p.mu.Unlock()
			<-p.sem
			return nil, ErrClosed
		}
		var c *Conn
		if n := len(p.free); n > 0 {
			c = p.free[n-1]
			p.free = p.free[:n-1]
		}
		p.mu.Unlock()
		if c == nil {
			break
		}
		reason, err := c.healthCheck()
		if err == nil {
			return c, nil
		}
		c.Close()
		p.discards.Add(1)
		p.healthDiscards.Add(1)
		p.healthFails[reason].Add(1)
	}
	nc, err := p.opt.DialFunc(p.addr, p.opt.DialTimeout)
	if err != nil {
		<-p.sem
		p.dialFails.Add(1)
		p.brk.record(false)
		return nil, err
	}
	p.dials.Add(1)
	return newConn(nc, p.opt.IOTimeout), nil
}

// Put returns a connection to the pool. A Conn with queued-but-unflushed
// requests, a sticky transport error, or a closed socket is closed and
// discarded instead; Discard does both explicitly.
func (p *Pool) Put(c *Conn) {
	p.mu.Lock()
	if p.done || c.closed || c.broken != nil || len(c.pending) > 0 {
		done := p.done
		p.mu.Unlock()
		c.Close()
		p.discards.Add(1)
		if !done {
			p.brk.record(c.broken != nil)
		}
		<-p.sem
		return
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
	p.brk.record(true)
	<-p.sem
}

// Discard closes a checked-out connection without pooling it, counting it
// as a transport failure for the circuit breaker.
func (p *Pool) Discard(c *Conn) {
	c.Close()
	p.discards.Add(1)
	p.brk.record(false)
	<-p.sem
}

// Close closes all idle connections; checked-out ones close on Put.
func (p *Pool) Close() {
	p.mu.Lock()
	p.done = true
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
}

// call is the one pooled operation: checkout, the retry policy, the
// trace ID that every request fn sends carries ("" = untraced) and release
// all live here, so each pooled verb is an fn and a projection of its
// result. canRetry gates retries entirely (non-idempotent ops pass false
// unless opted in); each retry consumes budget and sleeps a full-jitter
// backoff first, and all attempts share the trace ID, so the server-side
// flight records of a retried request correlate.
func call[T any](p *Pool, canRetry bool, trace string, fn func(c *Conn) (T, error)) (T, error) {
	attempts := 1
	if canRetry && p.opt.MaxRetries > 0 {
		attempts += p.opt.MaxRetries
	}
	var v T
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if !p.budget.take() {
				p.budgetDenied.Add(1)
				break
			}
			p.retries.Add(1)
			time.Sleep(p.backoff.sleepFor(a))
		}
		c, err := p.Get()
		if err != nil {
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrCircuitOpen) {
				// Terminal for this op: the pool is gone, or the breaker
				// wants silence — backing off here would defeat its point.
				return v, err
			}
			lastErr = err
			continue
		}
		if err := c.SetTrace(trace); err != nil {
			p.Put(c)
			return v, err
		}
		v, err = fn(c)
		c.trace = ""
		p.release(c, err)
		if err == nil {
			if p.budget != nil {
				p.budget.success()
			}
			return v, nil
		}
		lastErr = err
		if !retryable(err) {
			return v, err
		}
	}
	return v, lastErr
}

// oneShot is call for the verbs that are one queued request and its Reply.
func (p *Pool) oneShot(canRetry bool, trace string, queue func(c *Conn) error) (Reply, error) {
	return call(p, canRetry, trace, func(c *Conn) (Reply, error) { return c.roundTrip(queue(c)) })
}

// Set is a pooled one-shot SET. It is retried only when Options.RetrySets
// opted SETs into the retry policy.
func (p *Pool) Set(key, val string, ttl time.Duration) error {
	return p.SetTraced(key, val, ttl, "")
}

// Get1 is a pooled one-shot GET (named to avoid clashing with pool
// checkout).
func (p *Pool) Get1(key string) (string, bool, error) { return p.GetTraced(key, "") }

// Del is a pooled one-shot DEL.
func (p *Pool) Del(key string) (bool, error) {
	rep, err := p.oneShot(true, "", func(c *Conn) error { return c.QueueDel(key) })
	return rep.Found, err
}

// getV is a pooled one-shot GETV under a trace ID: the one read a Cluster
// issues.
func (p *Pool) getV(key, trace string) (val string, ver uint64, found bool, err error) {
	rep, err := p.oneShot(true, trace, func(c *Conn) error { return c.QueueGetV(key) })
	return rep.Value, rep.Ver, rep.Found, err
}

// setV is a pooled one-shot SETV under a trace ID, returning the write's
// version word: the one write a Cluster issues. Like Set, it is retried
// only when Options.RetrySets is set.
func (p *Pool) setV(key, val string, ttl time.Duration, trace string) (uint64, error) {
	rep, err := p.oneShot(p.opt.RetrySets, trace, func(c *Conn) error { return c.QueueSetV(key, val, ttl) })
	return rep.Ver, err
}

// Lease defaults for GetOrFill: the back-off used when the server
// offers no hint, and the round bound (100 rounds × the server's 20ms
// default hint covers one full 2s lease lifetime, so a crashed filler
// is always outlived).
const (
	leaseDefaultWait = 20 * time.Millisecond
	leaseMaxRounds   = 100
)

// ErrLeaseWait is returned by GetOrFill when the key stayed unfilled
// through the whole round budget — every round lost the lease race and
// no fill ever landed.
var ErrLeaseWait = errors.New("client: lease wait exhausted")

// GetOrFill fetches key, collapsing concurrent misses into one backend
// fill via the server's miss-lease protocol: a live hit returns
// immediately; on a miss the first caller wins a fill token, computes
// the value with fill, and publishes it with SETL while everyone else
// waits briefly (or, with acceptStale, takes an expired copy the server
// still holds). fill runs at most once per call and only after winning
// the lease; its value is returned to this caller even when the
// publish loses to a concurrent fresher write.
func (p *Pool) GetOrFill(key string, ttl time.Duration, acceptStale bool, fill func() (string, error)) (string, error) {
	for round := 0; round < leaseMaxRounds; round++ {
		rep, err := p.oneShot(true, "", func(c *Conn) error { return c.QueueLease(key) })
		if err != nil {
			return "", err
		}
		switch {
		case rep.Found:
			return rep.Value, nil
		case rep.Lease != 0:
			val, err := fill()
			if err != nil {
				// The unreleased lease expires on its own; waiters fall
				// back to re-acquiring after the TTL.
				return "", err
			}
			p.oneShot(false, "", func(c *Conn) error { return c.QueueSetLease(key, rep.Lease, val, ttl) })
			// A rejected fill means a fresher write already landed; the
			// freshly computed value is still correct to serve here.
			p.leaseFills.Add(1)
			return val, nil
		case rep.Stale && acceptStale:
			p.leaseStale.Add(1)
			return rep.Value, nil
		default:
			p.leaseWaits.Add(1)
			wait := rep.Wait
			if wait <= 0 {
				wait = leaseDefaultWait
			}
			time.Sleep(wait)
		}
	}
	return "", ErrLeaseWait
}

// Collect implements obs.Collector so applications embedding the client
// can export its fault-tolerance counters next to their own metrics.
func (p *Pool) Collect(m *obs.Metrics) {
	p.CollectWith(m)
}

// CollectWith renders the same series as Collect with the given label
// pairs attached to every sample. The cluster client uses it to export
// one series set per node (label "node"), so a dashboard can tell which
// peer's breaker tripped.
func (p *Pool) CollectWith(m *obs.Metrics, labels ...string) {
	st := p.Stats()
	m.Gauge("cuckood_client_pool_capacity", "Maximum concurrent pooled connections.", float64(st.Capacity), labels...)
	m.Gauge("cuckood_client_pool_in_use", "Connections currently checked out.", float64(st.InUse), labels...)
	m.Gauge("cuckood_client_pool_idle", "Connections parked in the free list.", float64(st.Idle), labels...)
	m.Counter("cuckood_client_dials_total", "Connections dialed over the pool's lifetime.", float64(st.Dials), labels...)
	m.Counter("cuckood_client_dial_failures_total", "Dial attempts that failed.", float64(st.DialFailures), labels...)
	m.Counter("cuckood_client_discards_total", "Connections closed instead of pooled.", float64(st.Discards), labels...)
	m.Counter("cuckood_client_health_discards_total", "Idle connections rejected by the checkout health check.", float64(st.HealthCheckDiscards), labels...)
	for _, reason := range healthReasons {
		m.Counter("cuckood_client_health_check_failures_total",
			"Checkout health-check failures by class: broken, closed, buffered (pipeline desync), socket (peer went away).",
			float64(st.HealthCheckFailures[reason]), append([]string{"reason", reason}, labels...)...)
	}
	m.Counter("cuckood_client_retries_total", "Operation retry attempts.", float64(st.Retries), labels...)
	m.Counter("cuckood_client_retry_budget_denied_total", "Retries suppressed by an exhausted retry budget.", float64(st.RetryBudgetDenied), labels...)
	m.Gauge("cuckood_client_retry_budget_tokens", "Retry token bucket level; near zero means retries are being rationed.", st.RetryBudgetTokens, labels...)
	m.Counter("cuckood_client_timeouts_total", "Transport failures that were deadline timeouts.", float64(st.Timeouts), labels...)
	m.Counter("cuckood_client_busy_rejections_total", "Server ERR busy overload rejections observed.", float64(st.BusyRejections), labels...)
	m.Counter("cuckood_client_lease_waits_total", "GetOrFill rounds spent waiting on another client's in-flight fill.", float64(st.LeaseWaits), labels...)
	m.Counter("cuckood_client_lease_fills_total", "Fills published after winning a miss lease.", float64(st.LeaseFills), labels...)
	m.Counter("cuckood_client_lease_stale_served_total", "Stale copies accepted while a fill was in flight.", float64(st.LeaseStaleServed), labels...)
	m.Gauge("cuckood_client_breaker_state", "Circuit breaker position: 0 closed, 1 open, 2 half-open.", float64(st.BreakerState), labels...)
	m.Counter("cuckood_client_breaker_opens_total", "Circuit breaker trips.", float64(st.BreakerOpens), labels...)
	m.Counter("cuckood_client_breaker_closes_total", "Circuit breaker recoveries.", float64(st.BreakerCloses), labels...)
	m.Counter("cuckood_client_breaker_denied_total", "Operations fast-failed while the breaker was open.", float64(st.BreakerDenied), labels...)
	for i, n := range p.brk.transitionCounts() {
		e := brEdges[i]
		m.Counter("cuckood_client_breaker_transitions_total",
			"Circuit breaker state transitions by edge.",
			float64(n), append([]string{"from", e.from, "to", e.to}, labels...)...)
	}
}

// budgetLevel returns the retry budget's current token count, or its
// configured maximum when retries are disabled (no budget exists, so
// nothing is ever denied).
func (p *Pool) budgetLevel() float64 {
	if p.budget == nil {
		if p.opt.RetryBudgetMax > 0 {
			return p.opt.RetryBudgetMax
		}
		return 20
	}
	return p.budget.level()
}

// release puts c back unless err was a transport failure, and keeps the
// failure-class counters.
func (p *Pool) release(c *Conn, err error) {
	var se *ServerError
	if err == nil || errors.As(err, &se) {
		if IsBusy(err) {
			p.busyErrs.Add(1)
		}
		p.Put(c)
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		p.timeouts.Add(1)
	}
	p.Discard(c)
}
