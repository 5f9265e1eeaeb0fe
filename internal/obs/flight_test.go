package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightWriteToFormat(t *testing.T) {
	f := NewFlight(1, 8)
	r1 := FlightRecord{Verb: "GET", Outcome: OutcomeOK, KeyHash: 0xdeadbeef, TotalNs: int64(1200 * time.Microsecond)}
	r1.Stages[StageProbe] = int64(time.Millisecond)
	r1.Stages[StageOther] = int64(200 * time.Microsecond)
	r1.SetTrace([]byte("abc123"))
	f.Record(0, &r1)
	r2 := FlightRecord{Verb: "SET", Outcome: OutcomeBusy, KeyHash: 1, TotalNs: int64(3 * time.Microsecond)}
	f.Record(0, &r2)

	var b strings.Builder
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := "seq=1 verb=GET outcome=ok key=00000000deadbeef trace=abc123 total=1.2ms stages=probe=1ms other=200µs\n" +
		"seq=2 verb=SET outcome=busy key=0000000000000001 trace= total=3µs stages=none\n"
	if b.String() != want {
		t.Errorf("WriteTo dump:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestFlightRingKeepsNewestPerShard(t *testing.T) {
	f := NewFlight(1, 4)
	for i := 0; i < 10; i++ {
		rec := FlightRecord{Verb: "GET", TotalNs: 1}
		f.Record(0, &rec)
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4 (ring capacity)", len(snap))
	}
	for i, rec := range snap {
		if want := uint64(7 + i); rec.Seq != want {
			t.Errorf("snap[%d].Seq = %d, want %d (oldest-first, newest survive)", i, rec.Seq, want)
		}
	}
}

func TestFlightSnapshotOrdersAcrossShards(t *testing.T) {
	f := NewFlight(4, 8)
	for i := 0; i < 12; i++ {
		rec := FlightRecord{Verb: "GET"}
		f.Record(uint64(i), &rec) // round-robin shards
	}
	snap := f.Snapshot()
	if len(snap) != 12 {
		t.Fatalf("Snapshot len = %d, want 12", len(snap))
	}
	for i, rec := range snap {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("snap[%d].Seq = %d, want %d (one timeline across shards)", i, rec.Seq, i+1)
		}
	}
}

func TestFlightSummary(t *testing.T) {
	var nilFlight *Flight
	if got := nilFlight.Summary(4); got != "none" {
		t.Errorf("nil Summary = %q, want none", got)
	}
	f := NewFlight(1, 8)
	if got := f.Summary(4); got != "none" {
		t.Errorf("empty Summary = %q, want none", got)
	}
	r1 := FlightRecord{Verb: "GET", Outcome: OutcomeOK, TotalNs: int64(1200 * time.Microsecond)}
	r1.SetTrace([]byte("abc"))
	f.Record(0, &r1)
	r2 := FlightRecord{Verb: "SET", Outcome: OutcomeErr, TotalNs: int64(5 * time.Microsecond)}
	f.Record(0, &r2)
	r3 := FlightRecord{Verb: "DEL", Outcome: OutcomeBad, TotalNs: 1}
	f.Record(0, &r3)
	// n=2 keeps only the newest two.
	if got, want := f.Summary(2), "[SET err 5µs] [DEL bad 1ns]"; got != want {
		t.Errorf("Summary(2) = %q, want %q", got, want)
	}
	if got, want := f.Summary(10), "[GET ok 1.2ms abc] [SET err 5µs] [DEL bad 1ns]"; got != want {
		t.Errorf("Summary(10) = %q, want %q", got, want)
	}
}

func TestFlightRecordTraceTruncation(t *testing.T) {
	var rec FlightRecord
	long := strings.Repeat("z", MaxTraceIDLen+9)
	rec.SetTrace([]byte(long))
	if got := rec.Trace(); got != long[:MaxTraceIDLen] {
		t.Errorf("Trace len = %d, want %d-byte truncation", len(got), MaxTraceIDLen)
	}
}

// TestFlightConcurrentRecordAndDump hammers Record from many goroutines
// while dumps run; meaningful under -race, and the seq assignment must
// never produce duplicates in a snapshot.
func TestFlightConcurrentRecordAndDump(t *testing.T) {
	f := NewFlight(4, 32)
	var writers, dumper sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				rec := FlightRecord{Verb: "GET", Outcome: OutcomeOK, KeyHash: uint64(i), TotalNs: int64(i)}
				rec.SetTrace([]byte("ffffffffffffffff"))
				f.Record(uint64(g*31+i), &rec)
			}
		}(g)
	}
	dumper.Add(1)
	go func() {
		defer dumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if _, err := f.WriteTo(&b); err != nil {
				t.Error(err)
				return
			}
			_ = f.Summary(8)
		}
	}()
	writers.Wait()
	close(stop)
	dumper.Wait()

	snap := f.Snapshot()
	seen := map[uint64]bool{}
	for _, rec := range snap {
		if seen[rec.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", rec.Seq)
		}
		seen[rec.Seq] = true
	}
}

func TestAdminMuxFlightEndpoint(t *testing.T) {
	f := NewFlight(1, 8)
	rec := FlightRecord{Verb: "GET", Outcome: OutcomeOK, KeyHash: 7, TotalNs: int64(time.Millisecond)}
	rec.SetTrace([]byte("t1"))
	f.Record(0, &rec)
	mux := NewAdminMux(NewRegistry(), f)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/flight status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	if !strings.Contains(body, "verb=GET") || !strings.Contains(body, "trace=t1") {
		t.Errorf("/debug/flight body missing record:\n%s", body)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/{$}", nil))
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rr.Body.String(), "/debug/flight") {
		t.Errorf("index missing /debug/flight:\n%s", rr.Body.String())
	}
}

func TestAdminMuxNilFlight(t *testing.T) {
	mux := NewAdminMux(NewRegistry(), nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("/debug/flight status = %d", rr.Code)
	}
	if got := rr.Body.String(); got != "flight recorder disabled\n" {
		t.Errorf("nil-flight body = %q, want disabled notice", got)
	}
}

// TestFlightAllocatesShardsByFirstRecord: a recorder holds no ring until a
// shard takes its first record, and dumps of a recorder with untouched
// shards show exactly what was recorded.
func TestFlightAllocatesShardsByFirstRecord(t *testing.T) {
	f := NewFlight(16, 8)
	if got := f.Allocated(); len(got) != 0 {
		t.Fatalf("fresh recorder allocated shards %v, want none", got)
	}
	var b strings.Builder
	if _, err := f.WriteTo(&b); err != nil || b.Len() != 0 {
		t.Fatalf("fresh WriteTo = %q, %v, want nothing", b.String(), err)
	}
	if got := f.Summary(4); got != "none" {
		t.Fatalf("fresh Summary = %q, want none", got)
	}
	if got := f.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh Snapshot = %+v, want empty", got)
	}

	rec := FlightRecord{Verb: "GET", TotalNs: 1}
	f.Record(5, &rec)
	rec = FlightRecord{Verb: "SET", TotalNs: 2}
	f.Record(16+5, &rec) // same shard, modulo the shard count
	if got := f.Allocated(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Allocated = %v, want [5]", got)
	}
	snap := f.Snapshot()
	if len(snap) != 2 || snap[0].Verb != "GET" || snap[1].Verb != "SET" {
		t.Fatalf("Snapshot = %+v, want the GET then the SET", snap)
	}
	b.Reset()
	if _, err := f.WriteTo(&b); err != nil || strings.Count(b.String(), "\n") != 2 {
		t.Fatalf("WriteTo = %q, %v, want two lines", b.String(), err)
	}
	if got, want := f.Summary(4), "[GET ok 1ns] [SET ok 2ns]"; got != want {
		t.Fatalf("Summary = %q, want %q", got, want)
	}
}

// TestFlightConcurrentFirstRecords: goroutines racing to make a shard's
// first records lose none of them — the ring is allocated once, under the
// shard's mutex, and never replaced.
func TestFlightConcurrentFirstRecords(t *testing.T) {
	const writers, each = 8, 8
	for round := 0; round < 50; round++ {
		f := NewFlight(4, writers*each)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < each; i++ {
					rec := FlightRecord{Verb: "GET", KeyHash: uint64(g*each + i)}
					f.Record(2, &rec)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if got := f.Allocated(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("round %d: Allocated = %v, want [2]", round, got)
		}
		snap := f.Snapshot()
		if len(snap) != writers*each {
			t.Fatalf("round %d: %d records kept, want all %d", round, len(snap), writers*each)
		}
		seen := make(map[uint64]bool, len(snap))
		for i, rec := range snap {
			if rec.Seq != uint64(i+1) || seen[rec.KeyHash] {
				t.Fatalf("round %d: record %d = seq %d key %d: a record was lost or repeated", round, i, rec.Seq, rec.KeyHash)
			}
			seen[rec.KeyHash] = true
		}
	}
}
