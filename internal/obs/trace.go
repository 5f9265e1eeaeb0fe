// cuckootrace: the request-tracing layer. A Span is per-connection
// scratch that attributes a request's wall time to pipeline stages
// (read, parse, dispatch queue, stripe-lock acquire, table probe,
// eviction, reply flush); a StageTable aggregates finished
// spans into per-{verb,stage} sharded histograms; SlowTraces keeps
// exemplar trace IDs for the slowest recent requests.
//
// The contract that makes tracing free when idle: an unarmed Span's
// Begin/Now return 0 without reading the clock, End on a zero start is
// a no-op, and no Span method allocates. The cuckoovet allocfree
// analyzer machine-checks that contract: every method of a span-shaped
// type is one of its proof roots.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cuckoohash/internal/metrics"
)

// Stage identifies one segment of a request's life inside the server.
type Stage uint8

const (
	// StageRead: blocking socket reads inside a request (the HANDOFF
	// bulk payload). Waiting for the next request line is client
	// think-time, not server work, and is deliberately not attributed.
	StageRead Stage = iota
	// StageParse: text-protocol parsing.
	StageParse
	// StageDispatch: waiting for an inflight-gate slot.
	StageDispatch
	// StageLock: acquiring key-stripe locks (txn layer).
	StageLock
	// StageProbe: cuckoo-table reads and writes under the stripe,
	// including the bucket drain a write pays while its shard grows.
	StageProbe
	// StageEvict: eviction passes on ErrFull retry loops.
	StageEvict
	// StageFlush: writing the batched reply to the socket.
	StageFlush
	// StageLease: miss-lease table work (grant, validate, release) on the
	// LEASE/SETL verbs.
	StageLease
	// StageOther: the remainder, so per-verb stage sums equal wall time.
	StageOther

	// NumStages is the number of Stage values.
	NumStages = int(StageOther) + 1
)

var stageNames = [NumStages]string{
	"read", "parse", "dispatch", "lock", "probe", "evict",
	"flush", "lease", "other",
}

// String returns the stage's label as exported on /metrics.
func (st Stage) String() string {
	if int(st) < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// MaxTraceIDLen bounds wire-level trace IDs; longer IDs are rejected at
// parse time (server) or truncated (span scratch).
const MaxTraceIDLen = 64

// Span is per-connection scratch recording one request's stage timings
// and trace ID. It is not safe for concurrent use; each connection owns
// exactly one and resets it per request via Arm/Disarm. All methods are
// nil-safe so call sites need no guards.
type Span struct {
	armed    bool
	traceLen uint8
	trace    [MaxTraceIDLen]byte
	stages   [NumStages]int64
}

// Arm resets the span for a new request and enables timing.
func (s *Span) Arm() {
	if s == nil {
		return
	}
	s.armed = true
	s.traceLen = 0
	s.stages = [NumStages]int64{}
}

// Disarm resets the span and disables timing: Begin/Now return 0
// without touching the clock until the next Arm.
func (s *Span) Disarm() {
	if s == nil {
		return
	}
	s.armed = false
	s.traceLen = 0
	s.stages = [NumStages]int64{}
}

// Armed reports whether timing is enabled.
func (s *Span) Armed() bool { return s != nil && s.armed }

// Begin starts timing a stage, returning the start instant in unix
// nanoseconds — or 0, without reading the clock, when the span is nil
// or unarmed. Pass the result to End.
func (s *Span) Begin() int64 {
	if s == nil || !s.armed {
		return 0
	}
	return time.Now().UnixNano()
}

// Now is Begin under a name that reads better when the caller wants a
// timestamp rather than a stage start.
func (s *Span) Now() int64 {
	if s == nil || !s.armed {
		return 0
	}
	return time.Now().UnixNano()
}

// End attributes the time since t0 to stage. A zero t0 (unarmed Begin)
// is a no-op that never reads the clock.
func (s *Span) End(stage Stage, t0 int64) {
	if t0 == 0 || s == nil {
		return
	}
	d := time.Now().UnixNano() - t0
	if d > 0 {
		s.stages[stage] += d
	}
}

// Finish closes the span for a request that took total nanoseconds of
// wall time, attributing the untimed remainder to StageOther so the
// per-verb stage sum equals wall time by construction.
func (s *Span) Finish(total int64) {
	if s == nil || !s.armed {
		return
	}
	var sum int64
	for i := 0; i < NumStages-1; i++ {
		sum += s.stages[i]
	}
	if rest := total - sum; rest > 0 {
		s.stages[StageOther] = rest
	}
}

// SetTrace records the request's wire trace ID (truncated to
// MaxTraceIDLen). It works on unarmed spans too: trace propagation must
// survive even when this request is not being timed.
func (s *Span) SetTrace(id []byte) {
	if s == nil {
		return
	}
	n := len(id)
	if n > MaxTraceIDLen {
		n = MaxTraceIDLen
	}
	copy(s.trace[:n], id[:n])
	s.traceLen = uint8(n)
}

// TraceBytes returns the recorded trace ID, or nil when none was set.
// The returned slice aliases span scratch; copy it to retain it.
func (s *Span) TraceBytes() []byte {
	if s == nil || s.traceLen == 0 {
		return nil
	}
	return s.trace[:s.traceLen]
}

// Stages returns a copy of the per-stage nanosecond totals.
func (s *Span) Stages() [NumStages]int64 {
	if s == nil {
		return [NumStages]int64{}
	}
	return s.stages
}

// SummarizeStages renders nonzero stage timings as "stage=dur" pairs
// for structured logs. Free function, not a Span method: it allocates,
// and every Span method is an allocfree root.
func SummarizeStages(st [NumStages]int64) string {
	var b []byte
	for i, ns := range st {
		if ns == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, stageNames[i]...)
		b = append(b, '=')
		b = append(b, time.Duration(ns).String()...)
	}
	if len(b) == 0 {
		return "none"
	}
	return string(b)
}

// StageTable aggregates finished spans into one sharded histogram per
// {verb, stage} cell. A cell's histogram is allocated by its first Record
// — most verb × stage pairs never see one, and a server's worth of empty
// histograms was half a megabyte — and cells without one are skipped on
// export, so memory and the series set both stay proportional to traffic
// actually seen.
type StageTable struct {
	verbs  []string
	shards int
	// hists is verb-major: hists[v*NumStages+stage]; nil until recorded.
	hists []atomic.Pointer[metrics.ShardedHistogram]
}

// NewStageTable builds a table for the given verb labels. shards is the
// per-histogram shard count (rounded up to a power of two by the
// histogram itself).
func NewStageTable(verbs []string, shards int) *StageTable {
	t := &StageTable{
		verbs:  verbs,
		shards: shards,
		hists:  make([]atomic.Pointer[metrics.ShardedHistogram], len(verbs)*NumStages),
	}
	return t
}

// Record adds one stage observation for verb (an index into the verbs
// slice passed to NewStageTable).
func (t *StageTable) Record(verb int, st Stage, shard uint64, ns int64) {
	if t == nil || verb < 0 || verb >= len(t.verbs) || ns <= 0 {
		return
	}
	cell := &t.hists[verb*NumStages+int(st)]
	h := cell.Load()
	if h == nil {
		h = t.newCell(cell)
	}
	h.Record(shard, uint64(ns))
}

// newCell publishes cell's histogram, or returns the one a concurrent
// Record published first.
//
//cuckoo:coldpath runs once per {verb, stage} cell a server ever records, at most len(verbs)*NumStages times
func (t *StageTable) newCell(cell *atomic.Pointer[metrics.ShardedHistogram]) *metrics.ShardedHistogram {
	h := metrics.NewShardedHistogram(t.shards)
	if cell.CompareAndSwap(nil, h) {
		return h
	}
	return cell.Load()
}

// RecordSpan folds a finished span's nonzero stages into verb's cells.
func (t *StageTable) RecordSpan(verb int, shard uint64, sp *Span) {
	if t == nil || sp == nil {
		return
	}
	for i, ns := range sp.stages {
		if ns > 0 {
			t.Record(verb, Stage(i), shard, ns)
		}
	}
}

// stageExportBuckets bounds the exported histogram: power-of-two
// nanosecond buckets up to ~1.1s, beyond which +Inf absorbs the tail.
const stageExportBuckets = 40

// Collect exports every non-empty cell as a {stage, verb}-labelled
// histogram in seconds.
func (t *StageTable) Collect(m *Metrics, name, help string) {
	if t == nil {
		return
	}
	for v, verb := range t.verbs {
		for st := 0; st < NumStages; st++ {
			h := t.hists[v*NumStages+st].Load()
			if h == nil {
				continue
			}
			snap := h.Snapshot()
			if snap.Count() == 0 {
				continue
			}
			raw := snap.Buckets()
			buckets := make([]HistBucket, stageExportBuckets)
			var cum uint64
			for i := 0; i < stageExportBuckets; i++ {
				cum += raw[i]
				buckets[i] = HistBucket{
					UpperBound: math.Ldexp(1, i) / 1e9,
					Count:      cum,
				}
			}
			for i := stageExportBuckets; i < len(raw); i++ {
				cum += raw[i]
			}
			m.Histogram(name, help, buckets, cum, float64(snap.Sum())/1e9,
				"stage", Stage(st).String(), "verb", verb)
		}
	}
}

// slowTraceSlots is the exemplar ring size: enough that a scrape
// between slow bursts still sees the culprits, small enough that the
// label-set churn on /metrics stays bounded.
const slowTraceSlots = 16

// SlowTrace is one exemplar: a trace ID observed on a slow request.
type SlowTrace struct {
	ID      string
	Verb    string
	Seconds float64
}

// SlowTraces is a fixed ring of recent slow-request exemplars. Only
// requests that carried a wire trace ID are noted — the point is to let
// an operator grep their own ID out of /metrics.
type SlowTraces struct {
	mu   sync.Mutex
	next int
	ring [slowTraceSlots]SlowTrace
}

// Note records one slow traced request. Empty IDs are ignored.
func (s *SlowTraces) Note(id []byte, verb string, seconds float64) {
	if s == nil || len(id) == 0 {
		return
	}
	s.mu.Lock()
	s.ring[s.next%slowTraceSlots] = SlowTrace{ID: string(id), Verb: verb, Seconds: seconds}
	s.next++
	s.mu.Unlock()
}

// Snapshot returns the current exemplars, most recent last.
func (s *SlowTraces) Snapshot() []SlowTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next
	if n > slowTraceSlots {
		n = slowTraceSlots
	}
	out := make([]SlowTrace, 0, n)
	start := s.next - n
	for i := start; i < s.next; i++ {
		out = append(out, s.ring[i%slowTraceSlots])
	}
	return out
}

// Collect exports the exemplars as a gauge keyed by trace ID, sorted so
// the exposition is deterministic for tests.
func (s *SlowTraces) Collect(m *Metrics, name, help string) {
	traces := s.Snapshot()
	sort.Slice(traces, func(i, j int) bool { return traces[i].ID < traces[j].ID })
	seen := map[string]bool{}
	for _, tr := range traces {
		if seen[tr.ID] {
			continue
		}
		seen[tr.ID] = true
		m.Gauge(name, help, tr.Seconds, "trace_id", tr.ID, "verb", tr.Verb)
	}
}
