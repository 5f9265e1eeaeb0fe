package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cuckoohash/generic"
	"cuckoohash/internal/faultinject"
	"cuckoohash/internal/obs"
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:11211").
	Addr string
	// Shards is the number of independent cuckoo tables the cache is
	// split into (rounded up to a power of two; default 8).
	Shards int
	// SlotsPerShard is each shard's fixed slot capacity (default 1<<16),
	// which a shard grows to by half at a time and then serves exactly
	// (rounded down to a multiple of eight). The cache is bounded: past
	// this it evicts rather than grows.
	SlotsPerShard uint64
	// SweepInterval is how often the TTL sweeper scans for expired
	// entries (default 1s; negative disables the sweeper — expiry then
	// happens only lazily on access).
	SweepInterval time.Duration
	// SlowOpThreshold enables slow-op tracing: every request whose
	// service time (excluding network I/O) meets or exceeds it is counted
	// and logged with its op, key, duration, trace ID, and per-stage
	// breakdown. When set, every request is timed (slow ops are never
	// dropped by latency sampling); zero disables the per-request clock
	// on unsampled requests entirely.
	SlowOpThreshold time.Duration
	// Logger receives structured lifecycle, connection-error, and slow-op
	// logs. Nil discards everything.
	Logger *slog.Logger

	// MaxConns bounds concurrently served connections; past it new
	// connections are shed at accept time with "ERR busy" and closed,
	// so overload turns into fast client-visible rejection instead of
	// unbounded goroutine and fd growth. Zero means unlimited.
	MaxConns int
	// MaxInflight bounds requests executing against the cache at once
	// (the verbs that touch no table are exempt: STATS, QUIT, CLUSTER,
	// HOTKEYS, MULTI, DISCARD); excess requests fail fast with
	// "ERR busy" rather than queueing behind a saturated table. Zero
	// means unlimited.
	MaxInflight int
	// IOTimeout bounds each response flush; a client that stops reading
	// for longer has its connection closed. Zero means no limit.
	IOTimeout time.Duration
	// IdleTimeout closes connections idle at a batch boundary for longer
	// than this. Zero means idle connections are kept forever.
	IdleTimeout time.Duration
	// FaultPlan, when non-nil, wraps the listener so accepted connections
	// inject the plan's deterministic faults (chaos testing only).
	FaultPlan *faultinject.Plan
	// SnapshotPath, when set, persists the cache there on drain and
	// restores it on Listen, so a restart keeps the keyspace warm.
	SnapshotPath string
	// TxnPhaseInterval is the split-counter phase tick (docs/TRANSACTIONS.md):
	// how often hot-key deltas are reconciled into the table and cooled-off
	// keys demoted back to the direct path. Default 50ms; negative disables
	// the ticker (reconciliation then happens only on reads and drains).
	TxnPhaseInterval time.Duration
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:11211"
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.SlotsPerShard == 0 {
		c.SlotsPerShard = 1 << 16
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Second
	}
	if c.TxnPhaseInterval == 0 {
		c.TxnPhaseInterval = 50 * time.Millisecond
	}
}

// Server is the cuckood daemon: a listener plus the sharded cache.
type Server struct {
	cfg    Config
	cache  *Cache
	log    *slog.Logger
	slowOp time.Duration

	ln        net.Listener
	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup // live connection handlers
	draining  atomic.Bool
	sweepStop chan struct{}
	inflight  chan struct{} // request-execution semaphore (nil = unlimited)
	snapOnce  sync.Once     // drain snapshot runs once even if Shutdown repeats

	// flight is the always-on flight recorder (docs/OBSERVABILITY.md):
	// a ring of recent op records served at /debug/flight and dumped to
	// the log on shed, slow-op, and panic paths. flightDumpAt rate-limits
	// the automatic log dumps to one per second.
	flight       *obs.Flight
	flightDumpAt atomic.Int64
}

// New creates a Server; call Listen then Serve (or ListenAndServe).
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	cache, err := NewCache(cfg.Shards, cfg.SlotsPerShard)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	cache.setLogger(log)
	s := &Server{
		cfg:       cfg,
		cache:     cache,
		log:       log,
		slowOp:    cfg.SlowOpThreshold,
		conns:     make(map[net.Conn]struct{}),
		sweepStop: make(chan struct{}),
		flight:    obs.NewFlight(flightShards, flightPerShard),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	// Grow events land in the flight recorder as synthetic records so an
	// incident dump shows resize activity inline with the ops around it:
	// verb GROW:start / GROW:done, the shard index and the bucket counts
	// before and after packed into the key-hash column, the remaining
	// backlog as the duration column (buckets, not time — grows have no
	// single duration by design; they are incremental). They all go to
	// flightGrowShard, whichever cache shard grew.
	cache.growHook = func(shard int, ev generic.GrowEvent) {
		rec := obs.FlightRecord{
			Verb:    "GROW:" + ev.Kind.String(),
			Outcome: obs.OutcomeOK,
			KeyHash: uint64(shard)<<48 | ev.FromBuckets<<24 | ev.ToBuckets,
			TotalNs: int64(ev.Backlog),
		}
		s.flight.Record(flightGrowShard, &rec)
	}
	return s, nil
}

// Cache exposes the underlying store, e.g. for in-process use or tests.
func (s *Server) Cache() *Cache { return s.cache }

// Flight recorder sizing: 16 shards × 64 records remembers the last ~1k
// operations — a few milliseconds of full-throttle traffic, which is the
// window an incident dump needs. A shard's ring is allocated by its first
// record: 64 records of 216 B, rounded up by the allocator to a 14 KiB
// size class, so one per connection up to the sixteenth and at most
// 225 KiB, measured. Connections take shards from 1 up (latShard counts
// from one), and grow events share shard 0, so a server that has only
// grown holds one ring and the last 64 grow records.
const (
	flightShards    = 16
	flightPerShard  = 64
	flightGrowShard = 0
	// flightDumpOps is how many trailing records automatic log dumps
	// include; the full ring stays available at /debug/flight.
	flightDumpOps = 8
)

// Flight exposes the flight recorder, e.g. for the admin mux.
func (s *Server) Flight() *obs.Flight { return s.flight }

// dumpFlight writes the flight recorder's tail to the log, rate-limited
// to one dump per second so an overload storm cannot turn the recorder
// into a log flood.
func (s *Server) dumpFlight(reason string) {
	now := time.Now().UnixNano()
	last := s.flightDumpAt.Load()
	if now-last < int64(time.Second) || !s.flightDumpAt.CompareAndSwap(last, now) {
		return
	}
	s.log.Warn("flight recorder dump", "reason", reason,
		"recent_ops", s.flight.Summary(flightDumpOps))
}

// Listen binds the configured address and starts the TTL sweeper.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if s.cfg.FaultPlan != nil {
		ln = s.cfg.FaultPlan.WrapListener(ln)
		s.log.Warn("fault injection armed", "plan", s.cfg.FaultPlan.String())
	}
	s.ln = ln
	if s.cfg.SnapshotPath != "" {
		if err := s.restoreSnapshot(); err != nil {
			ln.Close()
			return err
		}
	}
	if s.cfg.SweepInterval > 0 {
		go s.cache.sweeper(s.cfg.SweepInterval, s.sweepStop)
	}
	if s.cfg.TxnPhaseInterval > 0 {
		go s.txnPhaseTicker(s.cfg.TxnPhaseInterval, s.sweepStop)
	}
	s.log.Info("listening",
		"addr", ln.Addr().String(),
		"shards", len(s.cache.shards),
		"capacity", s.cache.Cap(),
		"sweep_interval", s.cfg.SweepInterval,
		"slow_op_threshold", s.slowOp)
	return nil
}

// Addr returns the bound listen address (valid after Listen).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until Shutdown or Close; it returns
// ErrServerClosed on a clean stop. Transient accept failures (ECONNABORTED,
// fd exhaustion, anything reporting itself temporary) are retried with
// capped exponential backoff instead of killing the accept loop — a burst
// of EMFILE under overload must degrade service, not end it. When MaxConns
// is reached, new connections are told "ERR busy" and closed immediately.
func (s *Server) Serve() error {
	var backoff time.Duration
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			if isTemporaryAcceptErr(err) {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > 500*time.Millisecond {
					backoff = 500 * time.Millisecond
				}
				s.cache.stats.acceptRetries.Add(1)
				s.log.Warn("accept failed; retrying", "err", err, "backoff", backoff)
				time.Sleep(backoff)
				continue
			}
			s.log.Error("accept failed", "err", err)
			return err
		}
		backoff = 0
		if s.cfg.MaxConns > 0 && s.cache.stats.connsActive.Load() >= int64(s.cfg.MaxConns) {
			s.cache.stats.connsShed.Add(1)
			s.dumpFlight("connection shed")
			shedConn(nc)
			continue
		}
		if !s.trackConn(nc) {
			nc.Close()
			return ErrServerClosed
		}
		go s.handleConn(nc)
	}
}

// isTemporaryAcceptErr classifies accept errors worth retrying: the
// listener is still healthy, only this accept failed. net.ErrClosed (the
// drain path) is never temporary.
func isTemporaryAcceptErr(err error) bool {
	if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) {
		return true
	}
	var ne net.Error
	//nolint:staticcheck // Temporary is deprecated but remains the accept-loop contract
	return errors.As(err, &ne) && ne.Temporary() && !errors.Is(err, net.ErrClosed)
}

// shedConn refuses an over-limit connection with a fast, bounded write so
// clients see an explicit busy rejection (retryable after backoff) rather
// than a silent close they might misread as a network fault.
func shedConn(nc net.Conn) {
	nc.SetWriteDeadline(time.Now().Add(time.Second))
	nc.Write([]byte("ERR busy\n"))
	nc.Close()
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// trackConn registers a live connection, refusing it when draining.
func (s *Server) trackConn(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	return true
}

// forgetConn closes and deregisters a connection.
func (s *Server) forgetConn(nc net.Conn) {
	nc.Close()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.wg.Done()
}

// Shutdown drains the server: it stops accepting, lets every connection
// finish (and flush) the batch it is processing, wakes connections that
// are idle in a blocking read, and waits for all handlers to exit. Each
// connection is closed by its own handler after its final flush, so a
// well-behaved client sees complete responses followed by EOF — never a
// reset. If ctx expires first, remaining connections are closed hard and
// the context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining.Load()
	s.draining.Store(true)
	if first {
		close(s.sweepStop)
	}
	if s.ln != nil {
		s.ln.Close()
	}
	if first {
		s.log.Info("drain started", "conns", len(s.conns))
	}
	// Wake handlers blocked in Read; they observe draining and exit
	// cleanly. Handlers mid-batch ignore this until their next read.
	for nc := range s.conns {
		nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete")
		s.cache.txn.ReconcileAll()
		s.saveSnapshotOnce()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		remaining := len(s.conns)
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		<-done
		s.log.Warn("drain deadline expired; connections closed hard",
			"conns", remaining)
		s.cache.txn.ReconcileAll()
		s.saveSnapshotOnce()
		return ctx.Err()
	}
}

// txnPhaseTicker runs the split-counter phase clock: every interval it
// folds pending hot-key deltas into the table and demotes keys that have
// gone cold, so a key that stops being contended returns to the direct
// (read-your-write-fresh) path within a couple of ticks.
func (s *Server) txnPhaseTicker(interval time.Duration, stop chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.cache.txn.Tick()
		case <-stop:
			return
		}
	}
}

// saveSnapshotOnce persists the cache to SnapshotPath after the drain; all
// handlers have exited by now, so the snapshot is a quiescent image.
func (s *Server) saveSnapshotOnce() {
	if s.cfg.SnapshotPath == "" {
		return
	}
	s.snapOnce.Do(func() {
		if err := s.saveSnapshot(); err != nil {
			s.log.Error("snapshot save failed", "path", s.cfg.SnapshotPath, "err", err)
		}
	})
}

// Close shuts down without a drain deadline grace: equivalent to
// Shutdown with an already-expired context, minus the error.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
