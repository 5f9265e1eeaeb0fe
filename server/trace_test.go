package server

import (
	"bufio"
	"bytes"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"cuckoohash/internal/obs"
)

// bufLogger pairs a goroutine-safe capture buffer (metrics_test.go's
// syncBuffer) with a debug-level text logger.
func bufLogger() (*syncBuffer, *slog.Logger) {
	buf := &syncBuffer{}
	return buf, slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

func TestTraceWireParsing(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	wantTraceErr := "ERR trace wants: TRACE <id (1..64 bytes)> <command...>"
	cases := []struct{ req, want string }{
		// The prefix is transparent to execution.
		{"TRACE abc123 SET k v", "OK"},
		{"TRACE ffeeddcc GET k", "VALUE v"},
		{"trace lower GET k", "VALUE v"}, // verb folding applies to TRACE too
		{"TRACE " + strings.Repeat("i", 64) + " GET k", "VALUE v"},
		// Malformed prefixes.
		{"TRACE", wantTraceErr},                                       // no id, no command
		{"TRACE id-only", wantTraceErr},                               // id but no command
		{"TRACE " + strings.Repeat("i", 65) + " GET k", wantTraceErr}, // id too long
		{"TRACE x TRACE y GET k", wantTraceErr},                       // prefix is legal exactly once
		// The wrapped command still gets its own errors.
		{"TRACE t BOGUS x", "ERR unknown command"},
		{"TRACE t SET onlykey", "ERR wrong number of arguments"},
	}
	for _, tc := range cases {
		if got := c.roundTrip(tc.req); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.req, got, tc.want)
		}
	}
}

// TestStageSumsClose drives each data verb through serveRequest with its
// span armed, as serveBatchHead arms a sampled request. The named stages
// must sum to no more than the request's wall time (no interval is
// attributed twice), and a verb that touches the table must attribute that
// work to probe.
func TestStageSumsClose(t *testing.T) {
	c, err := NewCache(1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cache: c}
	var cs connState
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	// Each round runs every verb; a double-counted interval shows in most
	// rounds but not every one, so there are several.
	for round := range 20 {
		for _, step := range []struct {
			line  string
			probe bool // the verb reads or writes the table
		}{
			{"SET k v", true},
			{"GET k", true},
			{"SET n 1", true},
			{"INCR n", true},
			{"CAS k v w", true},
			{"DEL k", true},
			{"MULTI", false},
			{"INCR n", false},
			{"GET k", false},
			{"EXEC", true},
			{fmt.Sprintf("REPLSET r%d 5 0 x", round), true},
			{fmt.Sprintf("REPLDEL r%d 6", round), true},
		} {
			buf.Reset()
			cs.span.Arm()
			start := cs.span.Now()
			s.serveRequest([]byte(step.line), nil, w, &cs)
			wall := cs.span.Now() - start
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(buf.String(), "ERR") {
				t.Fatalf("%q replied %q", step.line, buf.String())
			}
			st := cs.span.Stages()
			var named int64
			for i := range obs.NumStages - 1 { // all but other, which Finish fills in
				named += st[i]
			}
			if named > wall {
				t.Errorf("%q: named stages sum to %d ns over %d ns of wall time: %s", step.line, named, wall, obs.SummarizeStages(st))
			}
			if step.probe && st[obs.StageProbe] == 0 {
				t.Errorf("%q touched the table but attributed no probe time: %s", step.line, obs.SummarizeStages(st))
			}
		}
	}
}

func TestHotKeysVerbValidation(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	// A fresh server tracks nothing: the reply is just the terminator.
	if got := c.roundTrip("HOTKEYS"); got != "END" {
		t.Errorf("HOTKEYS on idle server -> %q, want END", got)
	}

	wantErr := "ERR hotkeys wants: HOTKEYS [count (1..128)]"
	for _, req := range []string{"HOTKEYS 0", "HOTKEYS 129", "HOTKEYS -1", "HOTKEYS x", "HOTKEYS 5 extra"} {
		if got := c.roundTrip(req); got != wantErr {
			t.Errorf("%q -> %q, want %q", req, got, wantErr)
		}
	}
}

func TestHotKeysRanksSampledTraffic(t *testing.T) {
	s := startServer(t, Config{})
	c := dialRaw(t, s)

	// Hot-key touches happen on sampled requests only (1 in 16 per
	// connection, starting at request 0). 16 groups of ten GETs on the hot
	// key followed by one unique cold key put samples 0,16,...,160 on the
	// stream; solving 16k ≡ 10 (mod 11) shows exactly one sample (k=2,
	// request 32) lands on a cold key, so the sketch must hold hot=10 and
	// cold2=1.
	for g := 0; g < 16; g++ {
		for i := 0; i < 10; i++ {
			if got := c.roundTrip("GET hot"); got != "MISS" {
				t.Fatalf("GET hot -> %q", got)
			}
		}
		if got := c.roundTrip(fmt.Sprintf("GET cold%d", g)); got != "MISS" {
			t.Fatalf("GET cold%d -> %q", g, got)
		}
	}
	c.send("HOTKEYS 5\n")
	var lines []string
	for {
		line := c.readLine()
		if line == "END" {
			break
		}
		lines = append(lines, line)
	}
	if len(lines) != 2 {
		t.Fatalf("HOTKEYS returned %d keys %v, want 2", len(lines), lines)
	}
	if lines[0] != "HOTKEY 10 hot" {
		t.Errorf("hottest line = %q, want HOTKEY 10 hot", lines[0])
	}
	if lines[1] != "HOTKEY 1 cold2" {
		t.Errorf("second line = %q, want HOTKEY 1 cold2", lines[1])
	}

	// HOTKEYS 1 truncates to the single hottest key.
	c.send("HOTKEYS 1\n")
	if got := c.readLine(); got != "HOTKEY 10 hot" {
		t.Errorf("HOTKEYS 1 -> %q, want HOTKEY 10 hot", got)
	}
	if got := c.readLine(); got != "END" {
		t.Errorf("HOTKEYS 1 terminator = %q, want END", got)
	}
}

// TestSlowOpsCaptureEveryRequest is the sampling-bypass regression: with a
// threshold armed, every request is timed, so no slow op can hide in the
// 15-of-16 unsampled slots.
func TestSlowOpsCaptureEveryRequest(t *testing.T) {
	s := startServer(t, Config{SlowOpThreshold: time.Nanosecond})
	c := dialRaw(t, s)

	const n = 40 // deliberately not a multiple of 16
	for i := 0; i < n; i++ {
		if got := c.roundTrip(fmt.Sprintf("TRACE trace%d SET k%d v", i, i)); got != "OK" {
			t.Fatalf("SET %d -> %q", i, got)
		}
	}
	if got := s.cache.stats.slowOps.Load(); got < n {
		t.Errorf("slow_ops = %d, want >= %d (every request must be timed when -slow-op is armed)", got, n)
	}
	// The newest slow traces carry the wire IDs.
	snap := s.cache.stats.slowTraces.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no slow traces recorded")
	}
	if got := snap[len(snap)-1].ID; got != fmt.Sprintf("trace%d", n-1) {
		t.Errorf("newest slow trace ID = %q, want trace%d", got, n-1)
	}
}

// TestTraceIDPropagatesAcrossMigrate is the cross-node acceptance check:
// one traced MIGRATE must put the same trace ID in the source's migrate
// log and the destination's slow-op log (the HANDOFF it receives carries
// the forwarded TRACE prefix).
func TestTraceIDPropagatesAcrossMigrate(t *testing.T) {
	bufA, logA := bufLogger()
	bufB, logB := bufLogger()
	a := startServer(t, Config{Logger: logA})
	b := startServer(t, Config{Logger: logB, SlowOpThreshold: time.Nanosecond})
	addrA, addrB := a.Addr().String(), b.Addr().String()
	ring := []string{addrA, addrB}

	ca := dialRaw(t, a)
	const n = 8
	for i := 0; i < n; i++ {
		if got := ca.roundTrip(fmt.Sprintf("SET mig%d v%d", i, i)); got != "OK" {
			t.Fatalf("SET mig%d -> %q", i, got)
		}
	}
	req := "TRACE deadbeef42 " + migrateCmd("shed", addrB, addrA, 7, 0, ring)
	if got := ca.roundTrip(req); got != fmt.Sprintf("MIGRATED %d", n) {
		t.Fatalf("traced migrate -> %q, want MIGRATED %d", got, n)
	}

	if logs := bufA.String(); !strings.Contains(logs, "trace=deadbeef42") {
		t.Errorf("source migrate log missing trace ID:\n%s", logs)
	}
	if logs := bufB.String(); !strings.Contains(logs, "trace=deadbeef42") {
		t.Errorf("destination slow-op log missing forwarded trace ID:\n%s", logs)
	}
	// The flight recorders on both nodes remember the traced hop.
	foundA, foundB := false, false
	for _, rec := range a.Flight().Snapshot() {
		if rec.Trace() == "deadbeef42" && rec.Verb == "MIGRATE" {
			foundA = true
		}
	}
	for _, rec := range b.Flight().Snapshot() {
		if rec.Trace() == "deadbeef42" && rec.Verb == "HANDOFF" {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Errorf("flight records missing traced hop: source=%v dest=%v", foundA, foundB)
	}
}

// TestFlightDumpOnConnectionShed forces the accept-time shed path and
// checks the incident dump fires with the recent-operation tail.
func TestFlightDumpOnConnectionShed(t *testing.T) {
	buf, logger := bufLogger()
	s := startServer(t, Config{MaxConns: 1, Logger: logger})
	c := dialRaw(t, s)
	if got := c.roundTrip("SET seen v"); got != "OK" {
		t.Fatalf("SET -> %q", got)
	}

	// The second connection is over the limit: shed with ERR busy, then
	// closed.
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	reply := make([]byte, 64)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	k, err := nc.Read(reply)
	if err != nil {
		t.Fatalf("shed connection read: %v", err)
	}
	if got := string(reply[:k]); !strings.HasPrefix(got, "ERR busy") {
		t.Fatalf("shed reply = %q, want ERR busy", got)
	}

	logs := buf.String()
	if !strings.Contains(logs, "flight recorder dump") || !strings.Contains(logs, "connection shed") {
		t.Errorf("shed did not dump the flight recorder:\n%s", logs)
	}
	if !strings.Contains(logs, "[SET ok") {
		t.Errorf("flight dump missing the recent SET:\n%s", logs)
	}
}

// TestGrowRecordsShareOneFlightShard: every shard's grow events reach the
// flight recorder as GROW:start / GROW:done records — cache shard, bucket
// counts before and after packed as shard<<48 | from<<24 | to, backlog in
// the duration column — and all of them go to flightGrowShard, so a server
// no connection has reached holds that one ring and no other. Four shards,
// so that their forty records fit the ring's 64.
func TestGrowRecordsShareOneFlightShard(t *testing.T) {
	const shards, slots = 4, 2048
	s, err := New(Config{Shards: shards, SlotsPerShard: slots, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cache()
	for i := range shards * slots * 3 / 4 {
		if err := c.Set(fmt.Sprintf("grow-%06d", i), "v", 0); err != nil {
			t.Fatal(err)
		}
	}
	for c.growing() {
		time.Sleep(time.Millisecond)
	}

	// Each shard grows by half from slots/8, and its last grow goes to
	// slots: 64 -> 96 -> 144 -> 216 -> 324 -> 512 buckets of four, one
	// start and one done record per grow. 1 536 entries a shard do not fit
	// 324 buckets' 1 296 slots, so every grow happens.
	type grow struct {
		shard, from, to uint64
		verb            string
	}
	want := map[grow]bool{}
	steps := []uint64{64, 96, 144, 216, 324, 512}
	for sh := range uint64(shards) {
		for i, from := range steps[:len(steps)-1] {
			want[grow{sh, from, steps[i+1], "GROW:start"}] = true
			want[grow{sh, from, steps[i+1], "GROW:done"}] = true
		}
	}
	got := map[grow]bool{}
	lastDone := map[uint64]int64{}
	for _, rec := range s.Flight().Snapshot() {
		if !strings.HasPrefix(rec.Verb, "GROW:") {
			t.Fatalf("unexpected %s record with no connection", rec.Verb)
		}
		d := grow{rec.KeyHash >> 48, rec.KeyHash >> 24 & (1<<24 - 1), rec.KeyHash & (1<<24 - 1), rec.Verb}
		if got[d] {
			t.Fatalf("%+v recorded twice", d)
		}
		got[d] = true
		switch rec.Verb {
		case "GROW:start":
			// The retiring generation's buckets are all still to migrate.
			if rec.TotalNs < int64(d.from) {
				t.Errorf("%+v: backlog %d at start, want >= %d", d, rec.TotalNs, d.from)
			}
		case "GROW:done":
			lastDone[d.shard] = rec.TotalNs
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d grow records, want %d", len(got), len(want))
	}
	for d := range want {
		if !got[d] {
			t.Errorf("missing %+v", d)
		}
	}
	for sh, backlog := range lastDone {
		if backlog != 0 {
			t.Errorf("shard %d: backlog %d after its last GROW:done, want 0", sh, backlog)
		}
	}
	if got := s.Flight().Allocated(); len(got) != 1 || got[0] != flightGrowShard {
		t.Errorf("flight shards allocated by grows alone: %v, want [%d]", got, flightGrowShard)
	}
}
