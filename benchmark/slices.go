package main

import "time"

// A run's measured time is cut into numSlices slices, and each timing
// metric is the median over the slices, so that a burst from another
// tenant of the host, which spoils a slice or two, does not move the run.
// A slice is long enough for its 99th percentile to have tens (on the
// slowest workload) to thousands of round trips beyond it.
const numSlices = 10

// sample is one timed slice of a workload: what it completed, how long it
// took, the CPU time the process spent, and its round-trip times.
type sample struct {
	ops  uint64
	wall time.Duration
	cpu  time.Duration
	rec  *recorder
}

func (s sample) opsPerS() float64 { return float64(s.ops) / s.wall.Seconds() }

// newSamples preallocates n samples with their recorders, so that no
// slice allocates while it is timed.
func newSamples(n int) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i].rec = newRecorder()
	}
	return out
}

// sliceLen is the length of one of the numSlices slices that make up a
// run of the given number of seconds.
func sliceLen(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second) / numSlices)
}

// timing holds a run's timing metrics: medians over its slices, and every
// round trip of the run for the quantiles a slice has too few samples for.
type timing struct {
	opsPerS    float64
	cpuNsPerOp float64
	p50us      float64
	p99us      float64
	rtt        *recorder
}

func medianTiming(samples []sample) timing {
	var rate, cpu, p50, p99 []float64
	rtt := newRecorder()
	for _, s := range samples {
		if s.ops == 0 || s.wall <= 0 {
			continue
		}
		rate = append(rate, s.opsPerS())
		cpu = append(cpu, float64(s.cpu)/float64(s.ops))
		p50 = append(p50, s.rec.quantile(0.50)/1e3)
		p99 = append(p99, s.rec.quantile(0.99)/1e3)
		rtt.merge(s.rec)
	}
	return timing{opsPerS: median(rate), cpuNsPerOp: median(cpu),
		p50us: median(p50), p99us: median(p99), rtt: rtt}
}

// set stores the timing under the names of the candidates.
func (t timing) set(m metricSet) {
	m["req_per_s"] = t.opsPerS
	m["rtt_p50_us"] = t.p50us
	m["rtt_p99_us"] = t.p99us
	m["cpu_ns_per_op"] = t.cpuNsPerOp
}
