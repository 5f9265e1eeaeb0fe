// Command cuckood runs the cuckoo-table network cache daemon:
//
//	cuckood -listen 127.0.0.1:11300 -shards 8 -slots 65536 -sweep 1s \
//	        -admin 127.0.0.1:11301 -log-level info -slow-op 10ms
//
// The daemon speaks the text protocol in docs/PROTOCOL.md and drains
// gracefully on SIGINT/SIGTERM: in-flight request batches complete and
// every connection is closed cleanly. With -admin it also serves an HTTP
// observability endpoint: Prometheus metrics at /metrics, an expvar
// snapshot at /debug/vars, and the pprof profiler under /debug/pprof/
// (docs/OBSERVABILITY.md). Load comes from outside the daemon:
// `bash benchmark/run.sh --workload …` (benchmark/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cuckoohash/internal/faultinject"
	"cuckoohash/internal/obs"
	"cuckoohash/server"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:11300", "listen address")
		shards   = flag.Int("shards", 8, "cache shards (rounded up to a power of two)")
		slots    = flag.Uint64("slots", 1<<16, "slot capacity per shard (bounded; evicts when full)")
		sweep    = flag.Duration("sweep", time.Second, "TTL sweep interval (<0 disables)")
		txnPhase = flag.Duration("txn-phase", 50*time.Millisecond, "split-counter phase tick: hot-key delta reconcile interval (<0 disables)")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")

		// Robustness (docs/ROBUSTNESS.md).
		maxConns    = flag.Int("max-conns", 0, "max concurrent connections; extras are shed with ERR busy at accept (0 = unlimited)")
		maxInflight = flag.Int("max-inflight", 0, "max requests executing at once; extras fail fast with ERR busy (0 = unlimited)")
		ioTimeout   = flag.Duration("io-timeout", 0, "per-batch response write deadline; slower readers are disconnected (0 = none)")
		idleTimeout = flag.Duration("idle-timeout", 0, "close connections idle longer than this (0 = keep forever)")
		snapshot    = flag.String("snapshot", "", "snapshot file: cache is saved here on drain and restored on start (empty disables)")
		faultSpec   = flag.String("fault-plan", "", "deterministic fault-injection spec, e.g. latency=2ms:0.05,reset:0.01 (testing only)")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for -fault-plan schedules")

		// Replication (docs/REPLICATION.md).
		replNodes = flag.String("repl-nodes", "", "comma-separated cluster node list in ring order, this node included; enables async two-choice replication (empty disables)")
		replSeed  = flag.Uint64("repl-seed", 0, "ring placement seed for -repl-nodes; must match the cluster's clients")

		// Observability.
		admin     = flag.String("admin", "", "admin HTTP listen address serving /metrics, /debug/vars, /debug/pprof/ (empty disables)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, or error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		slowOp    = flag.Duration("slow-op", 0, "slow-request threshold; every request at or over it is counted and logged with its trace ID and stage breakdown (0 disables)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cuckood:", err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	plan, err := faultinject.Parse(*faultSpec, *faultSeed)
	if err != nil {
		fatal("bad -fault-plan", err)
	}

	srv, err := server.New(server.Config{
		Addr:             *listen,
		Shards:           *shards,
		SlotsPerShard:    *slots,
		SweepInterval:    *sweep,
		TxnPhaseInterval: *txnPhase,
		SlowOpThreshold:  *slowOp,
		Logger:           logger,
		MaxConns:         *maxConns,
		MaxInflight:      *maxInflight,
		IOTimeout:        *ioTimeout,
		IdleTimeout:      *idleTimeout,
		SnapshotPath:     *snapshot,
		FaultPlan:        plan,
	})
	if err != nil {
		fatal("startup failed", err)
	}
	// Caught before the daemon announces itself: a signal that follows
	// "listening" is a drain, never the default kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := srv.Listen(); err != nil {
		fatal("listen failed", err)
	}
	if *replNodes != "" {
		nodes := strings.Split(*replNodes, ",")
		for i := range nodes {
			nodes[i] = strings.TrimSpace(nodes[i])
		}
		if err := srv.EnableReplication(nodes, *replSeed, *listen); err != nil {
			fatal("replication startup failed", err)
		}
		logger.Info("replication enabled", "nodes", *replNodes, "seed", *replSeed)
	}

	if *admin != "" {
		reg := obs.NewRegistry()
		reg.Register(obs.GoRuntime{})
		reg.Register(srv)
		obs.PublishExpvar("cuckood", srv.ExpvarSnapshot)
		adminLn, err := net.Listen("tcp", *admin)
		if err != nil {
			fatal("admin listen failed", err)
		}
		logger.Info("admin endpoint up",
			"addr", adminLn.Addr().String(),
			"paths", "/metrics /debug/vars /debug/pprof/ /debug/flight")
		go func() {
			if err := http.Serve(adminLn, obs.NewAdminMux(reg, srv.Flight())); err != nil {
				// The listener is never closed deliberately, so any error
				// here is real — but not fatal to the cache itself.
				logger.Error("admin endpoint failed", "err", err)
			}
		}()
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sig
		logger.Info("signal received; draining", "timeout", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain timed out", "err", err)
			return
		}
	}()

	if err := srv.Serve(); err != server.ErrServerClosed {
		fatal("serve failed", err)
	}
	// Serve returns as soon as the listener closes; wait for the drain to
	// finish so in-flight connections are not cut off by process exit.
	<-drained
}
