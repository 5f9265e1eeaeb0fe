package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"cuckoohash/internal/analysis/cuckoovet"
	"cuckoohash/internal/analysis/driver"
	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/workload"
)

// testScale shrinks every table, universe and ladder 128-fold, so all
// four workloads pass in both modes within a few seconds.
const (
	testScale   = 128
	testSeconds = 0.1
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredNames checks that BENCHMARK.json and the Go declarations
// name the same workloads and metrics, in the same units, each once.
func TestDeclaredNames(t *testing.T) {
	spec := readBenchmarkJSON(t)
	seen := map[string]bool{}
	once := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		once(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		once(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end_to_end %d: BENCHMARK.json says %s [%s], the benchmark %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != d.Bound {
			t.Errorf("end_to_end %s: unit %q, better %q, bound %g (the benchmark fixes %g)", m.Name, m.Unit, m.Better, m.Bound, d.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s [s], lower")
	}
	for i, m := range spec.PerLayer {
		once(m.Name)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per_layer %d: BENCHMARK.json says %s [%s], the benchmark %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestEveryWorkloadEmitsEveryName runs each workload at 1/128 scale in
// both modes and checks that the result carries exactly the declared
// metrics, each with its unit and a finite value, that an untraced run
// also measures the candidates, and that nothing failed.
func TestEveryWorkloadEmitsEveryName(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			mode, decls := "trace0", endToEnd
			if traced {
				mode, decls = "trace1", perLayer
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				rep, err := runOne(name, 1, testSeconds, traced, testScale, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%v", rep.Correct, rep.Attempted, rep.Failed, rep.notes)
				}
				if !traced {
					for _, d := range candidates {
						if m := rep.candidates[d.Name]; m.Unit != d.Unit || m.Value <= 0 {
							t.Errorf("candidate %s = %v [%s]", d.Name, m.Value, m.Unit)
						}
					}
				}
				if len(rep.Metrics) != len(decls) {
					t.Errorf("%d metrics emitted, %d declared", len(rep.Metrics), len(decls))
				}
				for _, d := range decls {
					m, ok := rep.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, must never be 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestLadderIdentity checks that the ladder's shares close: generator +
// cache rung + client codec + connection residual + kernel = CPU per
// request, on a workload that has both GETs and SETs.
func TestLadderIdentity(t *testing.T) {
	spec, _ := wireSpecFor(wlMixedUnpiped, testScale)
	var tl tally
	ms, err := runWireLayers(spec, 7, testSeconds, testScale, newSpanLog(), &tl)
	if err != nil {
		t.Fatal(err)
	}
	lad := newLadder(spec, newKeyspace(spec.universe), 7, testScale, newSpanLog())
	sum := ms["workload.gen_ns_per_op"] + lad.cacheMixNs(ms) + ms["client.codec_ns_per_req"] +
		ms["server.conn_resid_ns_per_req"] + ms["kernel.sys_ns_per_req"]
	if cpu := ms["cpu_ns_per_op"]; cpu <= 0 || math.Abs(sum-cpu) > 1e-6*cpu {
		t.Errorf("gen+cache+codec+resid+sys = %g, cpu_ns_per_op = %g", sum, cpu)
	}
	if user, sys, cpu := ms["proc.user_ns_per_req"], ms["kernel.sys_ns_per_req"], ms["cpu_ns_per_op"]; math.Abs(user+sys-cpu) > 1e-6*cpu {
		t.Errorf("user %g + sys %g != cpu %g", user, sys, cpu)
	}
}

// hash digests the next n operations, for the test that the same seed
// gives the same inputs.
func (o *opStream) hash(n int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for range n {
		idx, set := o.next()
		v := uint64(idx) << 1
		if set {
			v |= 1
		}
		h = hashfn.SplitMix64(h ^ v)
	}
	return h
}

// TestStreamDeterminism: the same seed gives the same inputs, another
// seed gives others, and so does another stream of the same seed.
func TestStreamDeterminism(t *testing.T) {
	for _, name := range []string{wlGetPipelined, wlMixedUnpiped, wlSetEvict} {
		spec, _ := wireSpecFor(name, 1)
		h := func(seed uint64, stream int) uint64 {
			return newOpStream(seed, stream, spec.universe, spec.setFrac, spec.zipfTheta).hash(10000)
		}
		if h(1, 0) != h(1, 0) {
			t.Errorf("%s: seed 1 gave two different streams", name)
		}
		if h(1, 0) == h(2, 0) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
		if h(1, 0) == h(1, 1) {
			t.Errorf("%s: connections 0 and 1 gave the same stream", name)
		}
	}
	if tableKey(1, 5) != tableKey(1, 5) || tableKey(1, 5) == tableKey(2, 5) {
		t.Error("table keys do not follow the seed")
	}
	r1, r2 := workload.NewRand(streamSeed(1, 0)), workload.NewRand(streamSeed(1, 0))
	if r1.Next() != r2.Next() {
		t.Error("workload.Rand is not deterministic")
	}
}

// TestKeyspace pins the key and value shapes the issue fixes.
func TestKeyspace(t *testing.T) {
	ks := newKeyspace(1000)
	if ks.keys[42] != "k000000000000042" || len(ks.keys[999]) != keyLen {
		t.Errorf("key 42 = %q", ks.keys[42])
	}
	if len(ks.vals[42]) != valLen || ks.vals[42] == ks.vals[43] {
		t.Errorf("values %q, %q", ks.vals[42], ks.vals[43])
	}
	if string(ks.keyBytes[7]) != ks.keys[7] {
		t.Error("keyBytes and keys disagree")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %g, %g; want 1, 3", q1, q3)
	}
}

// TestVetClean holds the benchmark to the repository's own analyzers
// (cuckoovet's TestTreeClean walks the root module only).
func TestVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module; skipped in -short")
	}
	prog, err := driver.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings, err := driver.Run(prog, cuckoovet.Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	here, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		// Loaded from here, the root module's packages are dependencies
		// seen without their own callers; their findings are
		// TestTreeClean's business.
		if strings.HasPrefix(f.Pos.Filename, here+string(os.PathSeparator)) {
			t.Errorf("%s", f)
		}
	}
}
