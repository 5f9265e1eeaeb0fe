package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanUnarmedReadsNoClockAndReturnsZero(t *testing.T) {
	var sp Span
	if got := sp.Begin(); got != 0 {
		t.Errorf("unarmed Begin() = %d, want 0", got)
	}
	if got := sp.Now(); got != 0 {
		t.Errorf("unarmed Now() = %d, want 0", got)
	}
	sp.End(StageParse, 0) // must be a no-op
	if st := sp.Stages(); st != ([NumStages]int64{}) {
		t.Errorf("unarmed End recorded stages: %v", st)
	}

	var nilSpan *Span
	if nilSpan.Begin() != 0 || nilSpan.Now() != 0 {
		t.Error("nil span Begin/Now != 0")
	}
	nilSpan.Arm()
	nilSpan.Disarm()
	nilSpan.End(StageProbe, 123)
	nilSpan.Finish(456)
	nilSpan.SetTrace([]byte("x"))
	if nilSpan.TraceBytes() != nil || nilSpan.Armed() {
		t.Error("nil span leaked state")
	}
}

func TestSpanRecordPathDoesNotAllocate(t *testing.T) {
	var sp Span
	id := []byte("deadbeefdeadbeef")
	// The unsampled request path: trace propagation on a disarmed span,
	// zero-valued Begin/End, and the stage copy for the flight record.
	allocs := testing.AllocsPerRun(200, func() {
		sp.Disarm()
		sp.SetTrace(id)
		t0 := sp.Begin()
		sp.End(StageProbe, t0)
		_ = sp.Stages()
		_ = sp.TraceBytes()
	})
	if allocs != 0 {
		t.Errorf("unsampled span path allocates %.1f per op, want 0", allocs)
	}
	// The armed path may read the clock but still must not allocate.
	allocs = testing.AllocsPerRun(200, func() {
		sp.Arm()
		t0 := sp.Begin()
		sp.End(StageProbe, t0)
		sp.Finish(sp.Now())
	})
	if allocs != 0 {
		t.Errorf("armed span path allocates %.1f per op, want 0", allocs)
	}
}

func TestSpanFinishAttributesRemainderToOther(t *testing.T) {
	var sp Span
	sp.Arm()
	// Attribute ~1ms to parse via a crafted start instant.
	sp.End(StageParse, time.Now().UnixNano()-int64(time.Millisecond))
	st := sp.Stages()
	if st[StageParse] < int64(time.Millisecond) {
		t.Fatalf("StageParse = %d, want >= 1ms", st[StageParse])
	}
	total := st[StageParse] + int64(3*time.Millisecond)
	sp.Finish(total)
	st = sp.Stages()
	var sum int64
	for _, ns := range st {
		sum += ns
	}
	if sum != total {
		t.Errorf("stage sum = %d, want total %d (StageOther must absorb the remainder)", sum, total)
	}
	if st[StageOther] != int64(3*time.Millisecond) {
		t.Errorf("StageOther = %d, want %d", st[StageOther], 3*time.Millisecond)
	}
}

func TestSpanArmResetsState(t *testing.T) {
	var sp Span
	sp.Arm()
	sp.SetTrace([]byte("abc"))
	sp.End(StageProbe, time.Now().UnixNano()-1000)
	sp.Arm()
	if sp.TraceBytes() != nil {
		t.Errorf("Arm kept trace %q", sp.TraceBytes())
	}
	if st := sp.Stages(); st != ([NumStages]int64{}) {
		t.Errorf("Arm kept stages %v", st)
	}
}

func TestSpanTraceTruncationAndUnarmedPropagation(t *testing.T) {
	var sp Span // deliberately unarmed: traces must stick anyway
	long := strings.Repeat("t", MaxTraceIDLen+17)
	sp.SetTrace([]byte(long))
	if got := string(sp.TraceBytes()); got != long[:MaxTraceIDLen] {
		t.Errorf("TraceBytes() = %q (len %d), want %d-byte truncation", got, len(got), MaxTraceIDLen)
	}
	sp.SetTrace([]byte("short"))
	if got := string(sp.TraceBytes()); got != "short" {
		t.Errorf("TraceBytes() = %q, want short", got)
	}
}

func TestSummarizeStages(t *testing.T) {
	var st [NumStages]int64
	if got := SummarizeStages(st); got != "none" {
		t.Errorf("empty summary = %q, want none", got)
	}
	st[StageParse] = int64(2 * time.Millisecond)
	st[StageFlush] = int64(time.Microsecond)
	got := SummarizeStages(st)
	if want := "parse=2ms flush=1µs"; got != want {
		t.Errorf("SummarizeStages = %q, want %q", got, want)
	}
}

func TestStageTableCollectSkipsEmptyCells(t *testing.T) {
	tab := NewStageTable([]string{"GET", "SET"}, 2)
	tab.Record(0, StageProbe, 0, int64(time.Millisecond))
	tab.Record(0, StageProbe, 1, int64(2*time.Millisecond))
	tab.Record(-1, StageProbe, 0, 1) // out of range: dropped
	tab.Record(2, StageProbe, 0, 1)  // out of range: dropped
	tab.Record(1, StageFlush, 0, 0)  // non-positive: dropped

	var sp Span
	sp.Arm()
	sp.End(StageLock, time.Now().UnixNano()-int64(time.Millisecond))
	tab.RecordSpan(1, 0, &sp)

	reg := NewRegistry()
	reg.RegisterFunc(func(m *Metrics) { tab.Collect(m, "stage_seconds", "help") })
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `stage_seconds_count{stage="probe",verb="GET"} 2`) {
		t.Errorf("missing GET/probe cell:\n%s", out)
	}
	if !strings.Contains(out, `stage="lock",verb="SET"`) {
		t.Errorf("missing SET/lock cell:\n%s", out)
	}
	if strings.Contains(out, `verb="SET"`) && strings.Contains(out, `stage="flush",verb="SET"`) {
		t.Errorf("empty SET/flush cell was exported:\n%s", out)
	}
}

// TestStageTableAllocatesOnFirstRecord: a fresh table holds no histogram —
// a server has some two hundred {verb, stage} cells and records into a
// handful — and a cell gets exactly one, however many recorders race to be
// its first, none of whose samples is lost.
func TestStageTableAllocatesOnFirstRecord(t *testing.T) {
	verbs := []string{"GET", "SET", "DEL"}
	tab := NewStageTable(verbs, 4)
	cells := func() (n int) {
		for i := range tab.hists {
			if tab.hists[i].Load() != nil {
				n++
			}
		}
		return n
	}
	if len(tab.hists) != len(verbs)*NumStages || cells() != 0 {
		t.Fatalf("a fresh table: %d cells, %d with a histogram", len(tab.hists), cells())
	}
	tab.Record(9, StageProbe, 0, 1) // dropped, and must not allocate either
	tab.Record(1, StageProbe, 0, 0)
	if cells() != 0 {
		t.Fatalf("dropped records allocated %d histograms", cells())
	}

	const recorders, each = 8, 1000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < recorders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				tab.Record(1, StageProbe, uint64(r), 100)
			}
		}(r)
	}
	close(start)
	wg.Wait()
	if cells() != 1 {
		t.Fatalf("%d cells hold a histogram after records to one", cells())
	}
	if snap := tab.hists[1*NumStages+int(StageProbe)].Load().Snapshot(); snap.Count() != recorders*each {
		t.Fatalf("the cell counts %d samples, want %d", snap.Count(), recorders*each)
	}
	tab.Record(1, StageProbe, 0, 100)
	tab.Record(2, StageFlush, 0, 100)
	if cells() != 2 {
		t.Fatalf("%d cells hold a histogram, want 2", cells())
	}
}

func TestSlowTracesRingAndDedupe(t *testing.T) {
	var st SlowTraces
	st.Note(nil, "GET", 1)      // ignored: no ID
	st.Note([]byte{}, "GET", 1) // ignored: empty ID
	st.Note([]byte("a"), "GET", 0.5)
	st.Note([]byte("a"), "GET", 0.7) // duplicate ID: Collect keeps one
	st.Note([]byte("b"), "SET", 0.9)
	snap := st.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(snap))
	}

	reg := NewRegistry()
	reg.RegisterFunc(func(m *Metrics) { st.Collect(m, "slow_trace_seconds", "help") })
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, `trace_id="a"`); got != 1 {
		t.Errorf("trace a exported %d times, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, `trace_id="b",verb="SET"`) {
		t.Errorf("missing trace b:\n%s", out)
	}

	// Overflow the ring: only the newest slowTraceSlots survive.
	for i := 0; i < slowTraceSlots+5; i++ {
		st.Note([]byte{'x', byte('0' + i%10)}, "GET", float64(i))
	}
	if got := len(st.Snapshot()); got != slowTraceSlots {
		t.Errorf("after overflow Snapshot len = %d, want %d", got, slowTraceSlots)
	}
}

// TestNilAndOutOfRange: the instruments a server may run without are nil,
// and every method on a nil one is a no-op; names past the tables read as
// unknown, and the smallest recorders still hold one record.
func TestNilAndOutOfRange(t *testing.T) {
	var f *Flight
	f.Record(0, &FlightRecord{})
	var k *TopK
	k.Touch([]byte("k"))
	var sp *Span
	var st *StageTable
	st.RecordSpan(0, 0, &Span{})
	st.Collect(newMetrics(), "x", "y")
	var slow *SlowTraces
	if f.Allocated() != nil || k.Items() != nil || sp.Stages() != [NumStages]int64{} || slow.Snapshot() != nil {
		t.Fatal("a nil instrument reported something")
	}
	if Outcome(99).String() != "unknown" || Stage(99).String() != "unknown" || Kind(99).String() != "untyped" {
		t.Fatal("an out-of-range name is not unknown")
	}
	if formatValue(math.Inf(-1)) != "-Inf" {
		t.Fatal("-Inf exposition")
	}
	small := NewFlight(0, 0)
	small.Record(5, &FlightRecord{Verb: "GET"})
	small.Record(5, &FlightRecord{Verb: "SET"})
	if recs := small.Snapshot(); len(recs) != 1 || recs[0].Verb != "SET" {
		t.Fatalf("NewFlight(0, 0) kept %+v, want the newest record alone", recs)
	}
	if NewTopK(0) == nil {
		t.Fatal("NewTopK(0)")
	}
}
