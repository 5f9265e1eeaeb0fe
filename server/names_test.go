package server

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The two declaration tables checked against themselves, against what
// the parent's hand-kept lists said, and against the docs.

// TestVerbTable pins what the verb table must keep saying: the parent's
// stage classes (verbClassOf + stageVerbs), its in-flight exemptions and
// its MULTI-queueable set.
func TestVerbTable(t *testing.T) {
	wantStage := map[string]string{
		"GET": "GET", "GETV": "GET",
		"SET": "SET", "SETEX": "SET", "SETV": "SET",
		"DEL": "DEL", "TTL": "TTL", "STATS": "STATS", "CLUSTER": "CLUSTER",
		"MIGRATE": "MIGRATE", "HANDOFF": "HANDOFF",
		"INCR": "INCR", "DECR": "INCR", "ADD": "INCR", "MAXUPDATE": "MAXUPDATE",
		"CAS": "CAS", "EXEC": "EXEC", "HOTKEYS": "HOTKEYS",
		"LEASE": "LEASE", "SETL": "LEASE",
		"REPLSET": "REPL", "REPLDEL": "REPL",
		"QUIT": "other", "MULTI": "other", "DISCARD": "other",
	}
	wantLabels := []string{
		"GET", "SET", "DEL", "TTL", "STATS", "CLUSTER", "MIGRATE",
		"HANDOFF", "INCR", "MAXUPDATE", "CAS", "EXEC", "HOTKEYS",
		"LEASE", "REPL", "other",
	}
	wantExempt := []string{"STATS", "QUIT", "CLUSTER", "MULTI", "DISCARD", "HOTKEYS"}
	wantQueued := []string{"GET", "SET", "SETEX", "DEL", "INCR", "DECR", "ADD", "MAXUPDATE", "CAS"}

	if !slices.Equal(stageVerbs, wantLabels) {
		t.Errorf("stage labels = %q, want %q (the order is /metrics series order)", stageVerbs, wantLabels)
	}
	if verbs[opGet].name != "GET" || verbs[opSet].name != "SET" {
		t.Error("GET and SET must be the first rows: the parser matches in row order")
	}
	var exempt, queued []string
	seen := map[string]bool{}
	for i := range verbs {
		v := &verbs[i]
		if v.name == "" || v.name != strings.ToUpper(v.name) || seen[v.name] {
			t.Errorf("row %d: name %q is empty, not upper case, or declared twice", i, v.name)
		}
		seen[v.name] = true
		if got := stageVerbs[v.stage]; got != wantStage[v.name] {
			t.Errorf("%s records its stages under %q, want %q", v.name, got, wantStage[v.name])
		}
		if v.exempt {
			exempt = append(exempt, v.name)
		}
		if v.queue != 0 {
			queued = append(queued, v.name)
		}
	}
	if !slices.Equal(exempt, wantExempt) {
		t.Errorf("in-flight exempt verbs = %q, want %q", exempt, wantExempt)
	}
	if !slices.Equal(queued, wantQueued) {
		t.Errorf("MULTI-queueable verbs = %q, want %q", queued, wantQueued)
	}
	if got := stageVerbs[opBad.row().stage]; got != "other" {
		t.Errorf("a bad line records its stages under %q, want other", got)
	}
}

// oneNameWaiver lists the counter rows allowed to lack a STATS line or a
// /metrics series, keyed by the name they do have, with the reason. A row
// not listed here must carry both, so a counter cannot be added to one
// surface only.
var oneNameWaiver = map[string]string{
	"load":                 "CLUSTER-only ratio of two exported gauges",
	"shards":               "a configuration constant; cuckood_shard_entries has one sample per shard",
	"hit_ratio":            "ratio of two exported counters",
	"lat_samples":          "cuckood_request_duration_seconds_count",
	"lat_mean_ns":          "summary of the cuckood_request_duration_seconds histogram",
	"lat_p50_ns":           "quantile of the cuckood_request_duration_seconds histogram",
	"lat_p99_ns":           "quantile of the cuckood_request_duration_seconds histogram",
	"lat_p999_ns":          "quantile of the cuckood_request_duration_seconds histogram",
	"hot_keys_tracked":     "cuckood_hot_key_count has one sample per reported key",
	"cuckood_lease_active": "a gauge that predates the rule; the STATS line order is frozen",
}

func TestCounterRowsNamedTwice(t *testing.T) {
	stat, cluster, prom := map[string]bool{}, map[string]bool{}, map[string]bool{}
	waived := map[string]bool{}
	for i := range counters {
		row := &counters[i]
		if row.read == nil || row.at >= numSlots {
			t.Fatalf("row %d (%s%s): no read closure, or a slot past numSlots", i, row.stat, row.prom)
		}
		for _, n := range []struct {
			name string
			seen map[string]bool
		}{{row.stat, stat}, {row.cluster, cluster}, {row.prom, prom}} {
			if n.name != "" && n.seen[n.name] {
				t.Errorf("row %d: %q is declared twice", i, n.name)
			}
			n.seen[n.name] = true
		}
		exported := row.prom != ""
		if row.prom == "" && row.label != nil {
			// One more sample of the family above: that row must be right
			// above, labelled, and emitted in the same slot.
			if i == 0 || counters[i-1].label == nil || counters[i-1].at != row.at {
				t.Errorf("row %d (%s): a labelled row without a family must directly follow a labelled row of its slot", i, row.stat)
			}
			exported = true
		}
		if len(row.label) != 0 && len(row.label) != 2 {
			t.Errorf("row %d (%s): label is one key/value pair", i, row.stat)
		}
		if row.stat != "" && exported {
			continue
		}
		name := row.stat + row.prom
		if name == "" {
			name = row.cluster
		}
		waived[name] = true
		if oneNameWaiver[name] == "" {
			t.Errorf("row %d: %q has a STATS line or a /metrics series but not both; give it the other or waive it with a reason", i, name)
		}
	}
	for name := range oneNameWaiver {
		if !waived[name] {
			t.Errorf("waiver for %q matches no one-name row; delete it", name)
		}
	}
}

// TestStatsAndMetricsAgree drives a little of everything and then reads
// both surfaces with no traffic in between: every row with two names
// must report one number (in its two units), and the two series the
// table made structural must be there.
func TestStatsAndMetricsAgree(t *testing.T) {
	s := startServer(t, Config{Shards: 2, SlotsPerShard: 1 << 10, SweepInterval: -1})
	c := dialRaw(t, s)
	for _, line := range []string{"SET k 1", "GET k", "GET absent", "INCR k 2", "INCR n", "CAS k 3 4", "CAS k 3 5", "DEL n"} {
		c.roundTrip(line)
	}
	s.cache.stats.snapSaveNs.Store(1_500_000_000) // a row whose two names differ in unit

	stats := map[string]string{}
	for _, l := range s.cache.Snapshot(s.cache.stats) {
		stats[l.Name] = l.Value
	}
	series := map[string]float64{} // "family{labels}" -> value
	for _, line := range strings.Split(scrape(t, s), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			series[name], _ = strconv.ParseFloat(val, 64)
		}
	}
	family := ""
	for i := range counters {
		row := &counters[i]
		if row.prom != "" {
			family = row.prom
		}
		if row.stat == "" || (row.prom == "" && row.label == nil) {
			continue
		}
		name := family
		if row.label != nil {
			name += "{" + row.label[0] + `="` + row.label[1] + `"}`
		}
		got, ok := series[name]
		if !ok {
			t.Errorf("STATS %s: no /metrics sample %s", row.stat, name)
			continue
		}
		want, _ := strconv.ParseFloat(stats[row.stat], 64)
		if row.unit != 0 {
			want /= row.unit
		}
		if got != want {
			t.Errorf("%s = %v but STATS %s = %s", name, got, row.stat, stats[row.stat])
		}
	}
	for name, want := range map[string]float64{
		"cuckood_incrs_total": 2, "cuckood_cas_total": 2, "cuckood_snapshot_last_save_seconds": 1.5,
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mentions(text, word string) bool {
	return regexp.MustCompile(`\b` + regexp.QuoteMeta(word) + `\b`).MatchString(text)
}

// TestDocsNameWhatTheTablesDeclare keeps the docs in step with the two
// tables: every verb is in docs/PROTOCOL.md, every STATS name in it or in
// docs/OBSERVABILITY.md (the list a prune of unread series starts from), and
// every place that lists the -max-inflight exemptions lists the verbs the
// table marks exempt.
func TestDocsNameWhatTheTablesDeclare(t *testing.T) {
	protocol := readDoc(t, "../docs/PROTOCOL.md")
	statDocs := protocol + readDoc(t, "../docs/OBSERVABILITY.md")
	for i := range verbs {
		if !mentions(protocol, verbs[i].name) {
			t.Errorf("verb %s is not in docs/PROTOCOL.md", verbs[i].name)
		}
	}
	for i := range counters {
		if name := counters[i].stat; name != "" && !mentions(statDocs, name) {
			t.Errorf("STATS name %s is in neither docs/PROTOCOL.md nor docs/OBSERVABILITY.md", name)
		}
	}

	// The exemption lists: the paragraph of each doc that says which
	// verbs -max-inflight lets through, and Config.MaxInflight's comment.
	config := readDoc(t, "server.go")
	from, to := strings.Index(config, "// MaxInflight bounds"), strings.Index(config, "\tMaxInflight int")
	if from < 0 || to < from {
		t.Fatal("server.go: Config.MaxInflight's comment not found")
	}
	lists := map[string]string{"Config.MaxInflight": config[from:to]}
	for _, doc := range []string{"../docs/PROTOCOL.md", "../docs/ROBUSTNESS.md"} {
		for _, para := range strings.Split(readDoc(t, doc), "\n\n") {
			if strings.Contains(para, "`-max-inflight`") && strings.Contains(para, "are exempt") {
				lists[doc] += para
			}
		}
		if lists[doc] == "" {
			t.Errorf("%s: no paragraph lists the -max-inflight exemptions", doc)
		}
	}
	for where, text := range lists {
		for i := range verbs {
			if v := &verbs[i]; v.exempt && !mentions(text, v.name) {
				t.Errorf("%s does not list %s, which the verb table exempts", where, v.name)
			}
		}
	}
}
