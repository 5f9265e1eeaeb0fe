package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const testSpec = `{"workloads":[{"name":"w"}],"end_to_end":[
 {"name":"req_per_s","unit":"1/s","better":"higher","bound":0.1},
 {"name":"rtt_p50_us","unit":"us","better":"lower","bound":0.1}]}`

func resultJSON(rps, rpsSpread, rtt, failShare float64) string {
	return fmt.Sprintf(`{"workloads":{"w":{"fail_share":%g,"end_to_end":{
 "req_per_s":{"median":%g,"spread":%g},"rtt_p50_us":{"median":%g,"spread":0.01}}}}}`,
		failShare, rps, rpsSpread, rtt)
}

// TestVerdicts: a change inside the bound passes, one beyond it in the
// worse direction is a regression whichever way "better" points, a wide
// spread is unresolved and not a regression, and any new failure counts.
func TestVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", testSpec)
	base := write("a.json", resultJSON(1000, 0.02, 50, 0))
	for _, tc := range []struct {
		name string
		b    string
		want int
	}{
		{"same", resultJSON(1000, 0.02, 50, 0), 0},
		{"within bound", resultJSON(950, 0.02, 54, 0), 0},
		{"better", resultJSON(2000, 0.02, 10, 0), 0},
		{"throughput down", resultJSON(850, 0.02, 50, 0), 1},
		{"latency up", resultJSON(1000, 0.02, 60, 0), 1},
		{"both worse", resultJSON(850, 0.02, 60, 0), 2},
		{"unresolved", resultJSON(850, 0.30, 50, 0), 0},
		{"new failures", resultJSON(1000, 0.02, 50, 0.001), 1},
	} {
		got, err := run(spec, base, write("b.json", tc.b))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: %d regressions, want %d", tc.name, got, tc.want)
		}
	}
	if _, err := run(spec, base, write("c.json", `{"workloads":{}}`)); err == nil {
		t.Error("a result file without the workload was accepted")
	}
}
