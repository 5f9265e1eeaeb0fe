//go:build unix

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cuckoohash/client"
	"cuckoohash/internal/workload"
)

// runMainEnv, set only by this file, turns the test binary into the
// daemon: the tests below re-execute themselves with it to drive the real
// main() — flags, admin mux, signal handler — as a child process.
const runMainEnv = "CUCKOOD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// daemon is one re-executed cuckood. Its stderr is drained for as long as
// it runs (a full pipe would block the daemon's logger) and kept, so a
// failure can show the whole log.
type daemon struct {
	cmd  *exec.Cmd
	more chan struct{} // a line arrived; closed at the end of the log
	mu   sync.Mutex
	log  []string
}

// startDaemon runs main() with args. The child is killed when the test's
// time budget runs out, which ends its log and fails whoever awaits it.
func startDaemon(t *testing.T, args ...string) *daemon {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	d := &daemon{cmd: exec.CommandContext(ctx, os.Args[0], args...), more: make(chan struct{}, 1)}
	d.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(d.more)
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			d.mu.Lock()
			d.log = append(d.log, sc.Text())
			d.mu.Unlock()
			select {
			case d.more <- struct{}{}:
			default:
			}
		}
	}()
	return d
}

// await blocks until the daemon has logged a JSON record whose msg is msg
// and returns it; the log ending first is fatal.
func (d *daemon) await(t *testing.T, msg string) map[string]any {
	t.Helper()
	for open := true; ; _, open = <-d.more {
		d.mu.Lock()
		log := d.log
		d.mu.Unlock()
		for _, line := range log {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == msg {
				return rec
			}
		}
		if !open {
			t.Fatalf("log ended without %q:\n%s", msg, strings.Join(log, "\n"))
		}
	}
}

// interrupt sends SIGINT and requires a clean exit: status 0, the drain
// and the snapshot both reported.
func (d *daemon) interrupt(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	d.await(t, "drain complete")
	d.await(t, "snapshot saved")
	for range d.more { // Wait may not be called before the pipe is read dry
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGINT: %v", err)
	}
}

// TestDaemonEndToEnd drives the real binary through its life: serve on
// ports the kernel picks, take a pipelined zipf GET/SET load with some
// requests traced, expose the admin endpoint, drain on SIGINT with status
// 0, restore on restart.
func TestDaemonEndToEnd(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap.bin")
	args := []string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-log-format", "json", "-slow-op", "1ms", "-snapshot", snap}
	d := startDaemon(t, args...)
	up := d.await(t, "listening")
	if up["slow_op_threshold"] != float64(time.Millisecond) {
		t.Errorf("-slow-op 1ms reached the server as %v ns", up["slow_op_threshold"])
	}
	addr := up["addr"].(string)
	admin := "http://" + d.await(t, "admin endpoint up")["addr"].(string)

	pool := client.NewPool(addr, 2)
	defer pool.Close()
	c, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	keys, ops := workload.NewZipfKeys(1, 1<<12, 0.99), workload.NewRand(2)
	for batch := 0; batch < 200; batch++ {
		for i := 0; i < 16; i++ {
			key := strconv.FormatUint(keys.NextKey(), 16)
			if ops.Intn(10) == 0 {
				err = c.QueueSet(key, "v-"+key, 0)
			} else {
				err = c.QueueGet(key)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Flush(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if batch%4 != 0 {
			continue
		}
		key, trace := "traced-"+strconv.Itoa(batch), client.NewTraceID()
		if err := pool.SetTraced(key, "t-"+key, 0, trace); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := pool.GetTraced(key, trace); err != nil || !ok || v != "t-"+key {
			t.Fatalf("GetTraced(%s) = %q, %v, %v", key, v, ok, err)
		}
	}
	pool.Put(c)

	for path, wants := range map[string][]string{
		"/metrics": {
			"cuckoo_table_path_length_bucket",
			"cuckoo_table_path_restarts_total",
			"cuckoo_lock_contended_total",
			"cuckood_hits_total",
			"cuckood_misses_total",
			"cuckood_evictions_total",
			"cuckood_slow_requests_total",
			"cuckood_request_duration_seconds_bucket",
			"cuckood_stage_seconds_bucket",
			"cuckood_hot_key_count",
		},
		"/debug/vars":   {`"cuckood"`},
		"/debug/pprof/": nil,
		"/debug/flight": {"verb=", "trace="},
	} {
		resp, err := http.Get(admin + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		for _, want := range wants {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s has no %s", path, want)
			}
		}
	}

	d.interrupt(t) // with the pool's idle connections still open

	d = startDaemon(t, args...)
	d.await(t, "snapshot restored")
	pool = client.NewPool(d.await(t, "listening")["addr"].(string), 1)
	defer pool.Close()
	if v, ok, err := pool.Get1("traced-0"); err != nil || !ok || v != "t-traced-0" {
		t.Fatalf("after restart Get1(traced-0) = %q, %v, %v", v, ok, err)
	}
	d.interrupt(t)
}

// daemonFlags is cuckood's whole flag surface. A flag added or removed on
// purpose changes this list and README.md / docs/*.md in the same change.
var daemonFlags = strings.Fields(`admin drain fault-plan fault-seed idle-timeout io-timeout listen
	log-format log-level max-conns max-inflight repl-nodes repl-seed shards slots slow-op snapshot
	sweep txn-phase`)

func TestFlagSurface(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	usage, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, usage)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([\w.-]+)`).FindAllStringSubmatch(string(usage), -1) {
		if !strings.HasPrefix(m[1], "test.") { // the test binary's own
			got = append(got, m[1])
		}
	}
	if !slices.Equal(got, daemonFlags) {
		t.Fatalf("cuckood -h lists\n  %v\nwant\n  %v", got, daemonFlags)
	}
}

func TestFlagsAreDocumented(t *testing.T) {
	files, _ := filepath.Glob("../../docs/*.md") // errs on a bad pattern only
	var docs strings.Builder
	for _, f := range append(files, "../../README.md") {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs.Write(b)
	}
	for _, name := range daemonFlags {
		if !regexp.MustCompile("(?m)(^|[\\s`(])-" + name + "([^\\w-]|$)").MatchString(docs.String()) {
			t.Errorf("-%s is in neither README.md nor docs/*.md", name)
		}
	}
}
