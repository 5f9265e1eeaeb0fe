// Command cuckoobench regenerates the paper's evaluation figures against
// this repository's table implementations.
//
// Usage:
//
//	cuckoobench -list
//	cuckoobench -exp fig6a [-scale small|medium|paper] [-csv out.csv]
//	cuckoobench -exp all
//
// Each experiment prints a text table whose rows/series mirror the paper's
// figure; see DESIGN.md §4 for the mapping and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cuckoohash/internal/bench"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id (see -list: fig1..fig10b, eq1, eq2, naive, memory, latency, zipf, churn) or \"all\"")
		scale   = flag.String("scale", "small", "workload scale: small, medium or paper")
		csvPath = flag.String("csv", "", "also write results as CSV to this file")
		outPath = flag.String("out", "", "also write machine-readable results (host, scale, all reports) as JSON to this file, creating parent directories (e.g. results/BENCH_core.json) — for committed perf baselines and CI artifacts")
		list    = flag.Bool("list", false, "list experiments and exit")
		repeat  = flag.Int("repeat", 1, "run each experiment N times and report per-cell medians (for noisy hosts)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "cuckoobench: -exp is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	sc, err := bench.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cuckoobench:", err)
		os.Exit(2)
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.Experiments()
	} else {
		e, ok := bench.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "cuckoobench: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	var csvFile *os.File
	if *csvPath != "" {
		csvFile, err = os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cuckoobench:", err)
			os.Exit(1)
		}
		defer csvFile.Close()
	}

	fmt.Printf("# %d logical CPUs, GOMAXPROCS=%d, scale=%s\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), *scale)
	var done []*bench.Report
	for _, e := range exps {
		start := time.Now()
		rep := runMedian(e, sc, *repeat)
		rep.Print(os.Stdout)
		fmt.Printf("  (took %v)\n\n", time.Since(start).Round(time.Millisecond))
		if csvFile != nil {
			fmt.Fprintf(csvFile, "# %s: %s\n", rep.ID, rep.Title)
			rep.CSV(csvFile)
			fmt.Fprintln(csvFile)
		}
		done = append(done, rep)
	}
	if *outPath != "" {
		writeJSONFile(*outPath, done, *scale, sc, *repeat)
	}
}

// writeJSONFile writes the machine-readable result payload to path,
// creating missing parent directories, so -out can target a fresh
// results/ tree on a CI runner.
func writeJSONFile(path string, done []*bench.Report, scale string, sc bench.Scale, repeat int) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "cuckoobench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fail(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := bench.WriteJSON(f, done, scale, sc, repeat); err != nil {
		fail(err)
	}
	fmt.Printf("# wrote %s\n", path)
}

// runMedian runs the experiment n times and merges the reports cell-wise by
// median; rows are matched by position (experiments emit deterministic row
// sets). With n == 1 it is a plain run.
func runMedian(e bench.Experiment, sc bench.Scale, n int) *bench.Report {
	if n < 2 {
		return e.Run(sc)
	}
	reports := make([]*bench.Report, n)
	for i := range reports {
		reports[i] = e.Run(sc)
	}
	merged := reports[0]
	for ri := range merged.Rows {
		for ci := range merged.Rows[ri].Values {
			samples := make([]float64, 0, n)
			for _, r := range reports {
				if ri < len(r.Rows) && ci < len(r.Rows[ri].Values) {
					samples = append(samples, r.Rows[ri].Values[ci])
				}
			}
			sort.Float64s(samples)
			merged.Rows[ri].Values[ci] = samples[len(samples)/2]
		}
	}
	merged.AddNote("values are per-cell medians of %d runs", n)
	return merged
}
