// Command benchmark is the repository's benchmark: three workloads that
// cross a real socket (an in-process server.Server on TCP loopback driven
// through client.Conn) and one that drives the public in-process tables.
// One run measures one workload:
//
//	go run . --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer ones; either way it verifies every reply and prints, as its
// last line, one JSON object {correct, attempted, failed, metrics}.
// Without --workload it runs every workload fullRuns times (each run in a
// process of its own, as the driver does) and writes one result file for
// ./compare. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
)

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// traceDir is where a traced run leaves trace-<workload>.json, beside the
// committed results, relative to the repository root the benchmark is
// run from.
const traceDir = "benchmark/results"

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run; empty runs all of them into -out")
		seed         = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 15, "seconds one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
		out          = flag.String("out", "", "with no -workload: result file to write")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchProcs)
	debug.SetGCPercent(benchGOGC)

	if *workloadName == "" {
		if err := runAll(*seed, *seconds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	host := readHost()
	res, err := runOne(*workloadName, *seed, *seconds, *trace == 1, 1, traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	host.LoadAvgEnd = loadAvg()
	printRun(*workloadName, *seed, *seconds, host, res)
	lines := []any{res.report}
	if *trace == 0 {
		lines = []any{res.candidates, res.report}
	}
	for _, v := range lines {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// result is what one run measured: the report, and from an untraced run
// also the candidates, which the report may not carry (the driver wants
// exactly the end-to-end metrics there) and which go out on the line
// before it.
type result struct {
	report
	candidates map[string]metric
	notes      []string
}

// runOne measures one workload once. scale divides every size (tests run
// at 1/128; a real run is scale 1); dir receives the traced run's spans.
func runOne(name string, seed uint64, seconds float64, traced bool, scale int, dir string) (result, error) {
	if !slices.Contains(workloadNames, name) {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	var tl tally
	var ms metricSet
	var err error
	decls := endToEnd
	spec, isWire := wireSpecFor(name, scale)
	if traced {
		decls = perLayer
		spans := newSpanLog()
		if isWire {
			ms, err = runWireLayers(spec, seed, seconds, scale, spans, &tl)
		} else {
			ms, err = runTableLayers(seed, seconds, scale, spans, &tl)
		}
		if err == nil {
			err = writeTrace(spans, dir, name)
		}
	} else if isWire {
		ms, err = runWireE2E(spec, seed, seconds, &tl)
	} else {
		ms, err = runTableE2E(seed, seconds, scale, &tl)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	res := result{
		report: report{
			Correct:   tl.failed == 0 && tl.attempted > 0,
			Attempted: tl.attempted,
			Failed:    tl.failed,
			Metrics:   ms.render(decls),
		},
		notes: tl.notes,
	}
	if !traced {
		res.candidates = ms.render(candidates)
	}
	return res, nil
}

// writeTrace stores the run's spans in dir, when that directory is there
// (a checkout without the committed results has none).
func writeTrace(spans *spanLog, dir, workload string) error {
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil
	}
	return spans.write(filepath.Join(dir, "trace-"+workload+".json"), workload)
}

func printRun(name string, seed uint64, seconds float64, host hostInfo, res result) {
	fmt.Printf("workload %s  seed %d  seconds %g  slices %d\n", name, seed, seconds, numSlices)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d GOGC=%d %s kernel=%s loadavg=%.2f..%.2f  load: %d connections / %d workers, closed loop\n",
		host.NProc, host.GOMAXPROCS, host.GOGC, host.GoVersion, host.Kernel,
		host.LoadAvgStart, host.LoadAvgEnd, benchProcs, benchProcs)
	if max(host.LoadAvgStart, host.LoadAvgEnd) > float64(host.NProc) {
		fmt.Println("WARNING: load average exceeds nproc; this run shared its CPUs")
	}
	printMetrics(res.Metrics, "")
	printMetrics(res.candidates, "  (per-layer: not bounded)")
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-36s %16.6g ratio (%d of %d)\n", "fail_share", share, res.Failed, res.Attempted)
	for _, n := range res.notes {
		fmt.Println("  note:", n)
	}
}

func printMetrics(ms map[string]metric, remark string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6g %s%s\n", n, ms[n].Value, ms[n].Unit, remark)
	}
}
