package server

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The pins: every name cuckood speaks — STATS lines, CLUSTER lines, the
// /metrics exposition, the wire verbs — as the outside world sees them,
// so a change to how the names are declared cannot change what is said.
// Regenerate the goldens with UPDATE_GOLDEN=1 only when a name is added
// or removed on purpose.

// addedSincePin are the /metrics families added after the goldens were
// recorded; their lines are dropped before the comparison so the golden
// itself never has to be edited for them. TestCounterRowsNamedTwice
// checks they are there.
var addedSincePin = []string{"cuckood_incrs_total", "cuckood_cas_total"}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
}

func statNames(lines []Stat) string {
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l.Name)
		b.WriteByte('\n')
	}
	return b.String()
}

// maskExposition replaces every sample value with V, keeping family
// names, # HELP and # TYPE headers, label sets and line order.
func maskExposition(text string) string {
	var b strings.Builder
lines:
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		for _, fam := range addedSincePin {
			if strings.Contains(line, fam) {
				continue lines
			}
		}
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i] + " V"
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestGoldenNames(t *testing.T) {
	s := startServer(t, Config{Shards: 2, SlotsPerShard: 1 << 10, SweepInterval: -1})
	checkGolden(t, "stats_names.golden", statNames(s.cache.Snapshot(s.cache.stats)))
	checkGolden(t, "cluster_names.golden", statNames(s.clusterInfo()))
	checkGolden(t, "metrics_masked.golden", maskExposition(scrape(t, s)))
}

// allOps lists every opCode the codec knows, in numeric order.
func allOps() []opCode {
	var ops []opCode
	for op := opCode(0); op.String() != "INVALID"; op++ {
		ops = append(ops, op)
	}
	return ops
}

// verbCanon is one canonical operand string per wire verb, and whether
// the verb's frame ends in a rest-of-line value (so a trailing extra
// token is part of the value, not an error). QUIT ignores its operands.
var verbCanon = map[string]struct {
	args    string
	extraOK bool
}{
	"GET":       {"k", false},
	"SET":       {"k v", true},
	"SETEX":     {"k 1500 v", true},
	"DEL":       {"k", false},
	"TTL":       {"k", false},
	"STATS":     {"", false},
	"QUIT":      {"", true},
	"CLUSTER":   {"", false},
	"MIGRATE":   {"shed b a 42 0 a,b", false},
	"HANDOFF":   {"1024", false},
	"INCR":      {"k 5", false},
	"DECR":      {"k 5", false},
	"ADD":       {"k 5", false},
	"MAXUPDATE": {"k 5", false},
	"CAS":       {"k old new", true},
	"MULTI":     {"", false},
	"EXEC":      {"", false},
	"DISCARD":   {"", false},
	"HOTKEYS":   {"5", false},
	"GETV":      {"k", false},
	"SETV":      {"k 0 v", true},
	"LEASE":     {"k", false},
	"SETL":      {"k deadbeef 0 v", true},
	"REPLSET":   {"k 5 0 v", true},
	"REPLDEL":   {"k 7", false},
}

// canonLine is the verb's canonical request line.
func canonLine(verb string) string {
	return strings.TrimRight(verb+" "+verbCanon[verb].args, " ")
}

// mixedCase alternates the case of s's letters: "SETEX" -> "sEtEx".
func mixedCase(s string) string {
	b := []byte(strings.ToLower(s))
	for i := 1; i < len(b); i += 2 {
		b[i] -= 'a' - 'A'
	}
	return string(b)
}

func TestVerbCodec(t *testing.T) {
	ops := allOps()
	if len(ops) != len(verbCanon) {
		t.Fatalf("codec knows %d verbs, verbCanon lists %d: give every verb its canonical line", len(ops), len(verbCanon))
	}
	for _, op := range ops {
		verb := op.String()
		canon, ok := verbCanon[verb]
		if !ok {
			t.Errorf("verb %s has no canonical line in verbCanon", verb)
			continue
		}
		for _, spelled := range []string{verb, strings.ToLower(verb), mixedCase(verb)} {
			line := strings.TrimRight(spelled+" "+canon.args, " ")
			req, err := parseRequest([]byte(line))
			if err != nil || req.op != op {
				t.Errorf("%q parsed to op %v, err %v; want %s", line, req.op, err, verb)
			}
			req, err = parseRequest([]byte("TRACE t1 " + line))
			if err != nil || req.op != op || string(req.trace) != "t1" {
				t.Errorf("traced %q parsed to op %v trace %q, err %v", line, req.op, req.trace, err)
			}
		}
		_, err := parseRequest([]byte(canonLine(verb) + " extra"))
		if canon.extraOK != (err == nil) {
			t.Errorf("%q with a trailing token: err %v, want accepted=%v", canonLine(verb), err, canon.extraOK)
		}
		// A verb is matched whole: a prefix or an extension of its name is
		// some other (unknown) command.
		for _, near := range []string{verb[:len(verb)-1], verb + "X"} {
			if _, known := verbCanon[near]; known {
				continue // GETV-1 = GET, SET+... are verbs in their own right
			}
			if _, err := parseRequest([]byte(near + " " + canon.args)); !errors.Is(err, errUnknownCmd) {
				t.Errorf("%q: err %v, want errUnknownCmd", near, err)
			}
		}
	}
	for _, line := range []string{"NOPE k", "TRACE t1 NOPE k", "G", "get2 k"} {
		if _, err := parseRequest([]byte(line)); !errors.Is(err, errUnknownCmd) {
			t.Errorf("%q: err %v, want errUnknownCmd", line, err)
		}
	}
	if got := opCode(len(ops)).String(); got != "INVALID" {
		t.Errorf("opCode past the last verb names itself %q", got)
	}
	if got := opBad.String(); got != "INVALID" {
		t.Errorf("opBad names itself %q", got)
	}
}
