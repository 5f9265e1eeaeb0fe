// Package obs is the unified observability layer: a dependency-free
// Prometheus-text-format metrics registry, an expvar bridge, an admin HTTP
// mux (/metrics, /debug/vars, /debug/pprof/), and log/slog helpers. It is
// the read side of the probe counters that internal/core, internal/spinlock,
// internal/htm and server maintain on their hot paths — collection happens
// only at scrape time, so probes stay as cheap as the counters themselves
// (principle P1: never share a statistics cache line between threads, and
// aggregate lazily).
//
// The exposition format implemented here is the stable subset of the
// Prometheus text format (version 0.0.4): # HELP / # TYPE headers, counter,
// gauge and cumulative histogram samples with optional labels. Families are
// emitted in registration order and label sets in emission order, which
// keeps output deterministic and golden-testable.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cuckoohash/internal/metrics"
)

// Kind is a Prometheus metric type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// HistBucket is one cumulative histogram bucket: Count samples were <= UpperBound.
type HistBucket struct {
	UpperBound float64 // +Inf allowed; an +Inf bucket is appended if missing
	Count      uint64  // cumulative
}

// sample is one metric sample gathered during a scrape.
type sample struct {
	labels  string // rendered {k="v",...} or ""
	value   float64
	buckets []HistBucket // histograms only
	count   uint64       // histograms only
	sum     float64      // histograms only
}

// family groups the samples of one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	samples []sample
}

// Metrics accumulates samples during one scrape. Collectors receive one and
// call Counter/Gauge/Histogram for every series they own; the same name may
// be emitted several times with different labels and is folded into one
// family.
type Metrics struct {
	order    []string
	families map[string]*family
}

func newMetrics() *Metrics {
	return &Metrics{families: make(map[string]*family)}
}

func (m *Metrics) familyFor(name, help string, kind Kind) *family {
	f, ok := m.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		m.families[name] = f
		m.order = append(m.order, name)
	}
	return f
}

// Counter emits one counter sample. labels are key/value pairs
// ("shard", "3"); an odd trailing key is ignored.
func (m *Metrics) Counter(name, help string, value float64, labels ...string) {
	f := m.familyFor(name, help, KindCounter)
	f.samples = append(f.samples, sample{labels: renderLabels(labels), value: value})
}

// Gauge emits one gauge sample.
func (m *Metrics) Gauge(name, help string, value float64, labels ...string) {
	f := m.familyFor(name, help, KindGauge)
	f.samples = append(f.samples, sample{labels: renderLabels(labels), value: value})
}

// Histogram emits one cumulative histogram. buckets must be cumulative and
// ascending in UpperBound; a +Inf bucket holding count is appended when the
// last bucket is finite.
func (m *Metrics) Histogram(name, help string, buckets []HistBucket, count uint64, sum float64, labels ...string) {
	f := m.familyFor(name, help, KindHistogram)
	f.samples = append(f.samples, sample{
		labels:  renderLabels(labels),
		buckets: buckets,
		count:   count,
		sum:     sum,
	})
}

// nanosExportBuckets bounds an exported nanosecond histogram: its finite
// bounds are 2^0 .. 2^39 ns (~9 minutes); anything slower lands in the
// +Inf bucket.
const nanosExportBuckets = 40

// NanosHistogram emits h, whose bucket i counts samples of at most 2^i ns,
// as a cumulative histogram in seconds with bounds le = 2^i / 1e9.
func (m *Metrics) NanosHistogram(name, help string, h *metrics.Histogram, labels ...string) {
	raw := h.Buckets()
	buckets := make([]HistBucket, nanosExportBuckets)
	var cum uint64
	for i, n := range raw {
		cum += n
		if i < nanosExportBuckets {
			buckets[i] = HistBucket{UpperBound: math.Ldexp(1, i) / 1e9, Count: cum}
		}
	}
	m.Histogram(name, help, buckets, cum, float64(h.Sum())/1e9, labels...)
}

// renderLabels renders k/v pairs as a canonical, sorted label block.
func renderLabels(kv []string) string {
	n := len(kv) / 2
	if n == 0 {
		return ""
	}
	pairs := make([]string, 0, n)
	for i := 0; i+1 < len(kv); i += 2 {
		// %q escapes backslash, double quote and newline exactly as the
		// exposition format requires.
		pairs = append(pairs, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}"
}

// Collector contributes metrics to a scrape.
type Collector interface {
	Collect(m *Metrics)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(m *Metrics)

// Collect implements Collector.
func (f CollectorFunc) Collect(m *Metrics) { f(m) }

// Registry is an ordered set of collectors. The zero value is unusable; use
// NewRegistry. Register and WriteText are safe for concurrent use; each
// scrape calls every collector's Collect on the scraping goroutine.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector. Collectors are scraped in registration
// order, which fixes the family order of the exposition output.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// RegisterFunc is Register for a bare collection function.
func (r *Registry) RegisterFunc(f func(m *Metrics)) { r.Register(CollectorFunc(f)) }

// Gather runs every collector and returns the accumulated samples.
func (r *Registry) Gather() *Metrics {
	r.mu.Lock()
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	m := newMetrics()
	for _, c := range collectors {
		c.Collect(m)
	}
	return m
}

// WriteText scrapes every collector and writes the Prometheus text
// exposition format to w.
func (r *Registry) WriteText(w io.Writer) error {
	return r.Gather().writeText(w)
}

func (m *Metrics) writeText(w io.Writer) error {
	var b strings.Builder
	for _, name := range m.order {
		f := m.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			if f.kind == KindHistogram {
				writeHistogram(&b, f.name, s)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, s sample) {
	sawInf := false
	for _, bk := range s.buckets {
		le := formatValue(bk.UpperBound)
		if math.IsInf(bk.UpperBound, +1) {
			le = "+Inf"
			sawInf = true
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", le), bk.Count)
	}
	if !sawInf {
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", "+Inf"), s.count)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatValue(s.sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, s.count)
}

// withLabel splices one extra label into an already-rendered label block.
func withLabel(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
