package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// fullRuns is how many untraced runs of each workload a full set makes,
// all on the same seed: the spread over them is the host's and the
// program's, not the inputs'.
const fullRuns = 10

// resultFile is what a full set of runs writes and ./compare reads.
type resultFile struct {
	Host         hostInfo                  `json:"host"`
	Seed         uint64                    `json:"seed"`
	Runs         int                       `json:"runs"`
	RunSeconds   float64                   `json:"run_seconds"`
	Slices       int                       `json:"slices_per_run"`
	SetupRepeats int                       `json:"setups_per_run"`
	Connections  int                       `json:"connections"`
	Loop         string                    `json:"loop"`
	Workloads    map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// FailShare is failed ÷ attempted over every run of the workload.
	FailShare float64                  `json:"fail_share"`
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	// Candidates are the timing metrics the calibration rule moved to
	// the per-layer section, over the same untraced runs.
	Candidates map[string]metricSummary `json:"candidates"`
	PerLayer   map[string]metric        `json:"per_layer"`
}

// metricSummary is one metric over the untraced runs. Spread is the
// distance between the first and third quartile as a share of the median,
// the quantity the bounds in BENCHMARK.json are compared with.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does, so spreads computed here match
// the ones the driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func summarize(unit string, values []float64) metricSummary {
	q1, q3 := quartiles(values)
	s := metricSummary{Unit: unit, Median: median(values), Q1: q1, Q3: q3, Values: values}
	if s.Median != 0 {
		s.Spread = (q3 - q1) / s.Median
	}
	return s
}

// runAll runs every workload fullRuns times untraced and once traced,
// each run in a child process so that heap, CPU time and GC state are the
// run's own, and writes the summary to out.
func runAll(seed uint64, seconds float64, out string) error {
	if out == "" {
		return errors.New("running every workload needs -out FILE (or name one with -workload)")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := resultFile{
		Host: readHost(), Seed: seed, Runs: fullRuns, RunSeconds: seconds,
		Slices: numSlices, SetupRepeats: setupRepeats, Connections: benchProcs,
		Loop:      "closed",
		Workloads: map[string]workloadResult{},
	}
	for _, name := range workloadNames {
		wr := workloadResult{Correct: true, EndToEnd: map[string]metricSummary{}, Candidates: map[string]metricSummary{}}
		values := map[string][]float64{}
		count := func(rep report) {
			wr.Correct = wr.Correct && rep.Correct
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
		}
		for range fullRuns {
			rep, cands, err := runChild(self, name, seed, seconds, 0)
			if err != nil {
				return err
			}
			count(rep)
			for _, ms := range []map[string]metric{rep.Metrics, cands} {
				for n, m := range ms {
					values[n] = append(values[n], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summarize(d.Unit, values[d.Name])
		}
		for _, d := range candidates {
			wr.Candidates[d.Name] = summarize(d.Unit, values[d.Name])
		}
		rep, _, err := runChild(self, name, seed, seconds, 1)
		if err != nil {
			return err
		}
		count(rep)
		wr.PerLayer = rep.Metrics
		wr.FailShare = float64(wr.Failed) / float64(wr.Attempted)
		res.Workloads[name] = wr

		fmt.Printf("%s  correct=%v fail_share=%g\n", name, wr.Correct, wr.FailShare)
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Printf("  %-36s %16.6g %-6s spread %.4f  bound %.2f\n", d.Name, s.Median, s.Unit, s.Spread, d.Bound)
		}
		for _, d := range candidates {
			s := wr.Candidates[d.Name]
			fmt.Printf("  %-36s %16.6g %-6s spread %.4f  (per-layer; the issue's bound was %.2f)\n", d.Name, s.Median, s.Unit, s.Spread, d.Bound)
		}
		for _, d := range perLayer {
			fmt.Printf("  %-36s %16.6g %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
	}
	res.Host.LoadAvgEnd = loadAvg()
	if max(res.Host.LoadAvgStart, res.Host.LoadAvgEnd) > float64(res.Host.NProc) {
		fmt.Println("WARNING: load average exceeds nproc; these runs shared their CPUs")
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// runChild runs one workload in a child process and parses the last line
// of its output, and from an untraced run the candidates on the line
// before it.
func runChild(self, name string, seed uint64, seconds float64, trace int) (report, map[string]metric, error) {
	cmd := exec.Command(self,
		"--workload", name,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	fail := func(err error) (report, map[string]metric, error) {
		return report{}, nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
	}
	outBytes, err := cmd.Output() // Output waits for the child to end
	if err != nil {
		return fail(err)
	}
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return fail(fmt.Errorf("last line is not a result: %w", err))
	}
	var cands map[string]metric
	if trace == 0 {
		if len(lines) < 2 {
			return fail(errors.New("no candidates line"))
		}
		if err := json.Unmarshal(lines[len(lines)-2], &cands); err != nil {
			return fail(fmt.Errorf("the line before the result is not the candidates: %w", err))
		}
	}
	return rep, cands, nil
}
