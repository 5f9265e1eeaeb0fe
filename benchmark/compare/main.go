// Command compare sets two result files of the benchmark side by side.
// Run it from the benchmark directory:
//
//	go run ./compare A.json B.json
//
// For every workload and end-to-end metric it prints A's and B's median,
// the change in the metric's "better" direction, and a verdict against the
// bound BENCHMARK.json fixes: ok, REGRESSION (B is worse than A by more
// than the bound), or unresolved (either side's run-to-run spread exceeds
// the bound, so the two medians cannot be told apart at that resolution).
// The timing candidates that the calibration rule moved to the per-layer
// section follow, with their spreads and no verdict. It exits 1 if any row
// is a regression.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// specPath is BENCHMARK.json as seen from the benchmark directory.
const specPath = "../BENCHMARK.json"

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type summary struct {
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
}

// result is the part of a result file compare reads.
type result struct {
	Workloads map[string]struct {
		FailShare  float64            `json:"fail_share"`
		EndToEnd   map[string]summary `json:"end_to_end"`
		Candidates map[string]summary `json:"candidates"`
	} `json:"workloads"`
}

func load(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage (from the benchmark directory): go run ./compare A.json B.json")
		os.Exit(2)
	}
	regressions, err := run(specPath, os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s)\n", regressions)
		os.Exit(1)
	}
}

func run(specPath, pathA, pathB string) (regressions int, err error) {
	var sp spec
	var a, b result
	if err := load(specPath, &sp); err != nil {
		return 0, err
	}
	if err := load(pathA, &a); err != nil {
		return 0, err
	}
	if err := load(pathB, &b); err != nil {
		return 0, err
	}
	const row = "%-24s %-20s %14.6g %14.6g %+8.2f%% %7s  %s\n"
	fmt.Printf("%-24s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "better by", "bound", "verdict")
	for _, w := range sp.Workloads {
		wa, okA := a.Workloads[w.Name]
		wb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			return 0, fmt.Errorf("workload %s is missing from a result file", w.Name)
		}
		for _, m := range sp.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ma.Median == 0 {
				return 0, fmt.Errorf("%s %s: A has no value", w.Name, m.Name)
			}
			// worse is the share of A's median by which B is worse.
			worse := (mb.Median - ma.Median) / ma.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case ma.Spread > m.Bound || mb.Spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread A %.3f, B %.3f)", ma.Spread, mb.Spread)
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Printf(row, w.Name, m.Name, ma.Median, mb.Median, -100*worse, fmt.Sprintf("%.0f%%", 100*m.Bound), verdict)
		}
		// fail_share may not worsen at all.
		verdict := "ok"
		if wb.FailShare > wa.FailShare {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-24s %-20s %14.6g %14.6g %9s %7s  %s\n", w.Name, "fail_share", wa.FailShare, wb.FailShare, "", "0%", verdict)
		// The candidates have no direction in BENCHMARK.json's end_to_end
		// and no bound: the change of the median is printed as it is.
		names := make([]string, 0, len(wa.Candidates))
		for n := range wa.Candidates {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			ma, mb := wa.Candidates[n], wb.Candidates[n]
			change := 0.0
			if ma.Median != 0 {
				change = (mb.Median - ma.Median) / ma.Median
			}
			fmt.Printf(row, w.Name, n, ma.Median, mb.Median, 100*change, "-",
				fmt.Sprintf("per-layer, change of the median (spread A %.3f, B %.3f)", ma.Spread, mb.Spread))
		}
	}
	return regressions, nil
}
