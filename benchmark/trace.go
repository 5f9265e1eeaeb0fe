package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded here, around the calls, not inside the program under test;
// they stay in memory until the run ends.
//
// A span wraps a whole ladder pass or one flush of a batch, never a
// single in-process operation: two clock reads cost about as much as the
// 100 ns table GET they would time.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Stream  int    `json:"stream"` // connection index; -1 for single-goroutine spans
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ops     int    `json:"ops"` // operations the call covered
}

// spanLog is the run's span store. Only the goroutine that runs the
// workload's phases touches it: a connection's goroutine records its
// flush spans in a flushSpans of its own, which the log adopts once the
// slice has ended, as the round-trip recorders are merged.
type spanLog struct {
	t0      time.Time
	spans   []span
	dropped int // flush spans beyond flushSpansPerSlice
}

// flushSpansPerSlice is how many of its flushes a connection keeps as
// spans in one traced slice. They come by the hundred thousand; the
// first ones of every slice show the shape, the rest are counted.
const flushSpansPerSlice = 200

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent, stream int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Stream: stream,
		StartNs: int64(time.Since(l.t0))})
	return id
}

func (l *spanLog) end(id, ops int) {
	l.spans[id].EndNs = int64(time.Since(l.t0))
	l.spans[id].Ops = ops
}

// flushSpans is what one connection records during one traced slice. It
// reuses the two clock reads the round-trip recorder takes anyway and
// writes only its own lines, so the spans add nothing to the slice that
// another connection could wait for.
type flushSpans struct {
	_       linePad
	origin  time.Time // the log's
	spans   []span    // capacity flushSpansPerSlice, never grown
	dropped int
	_       linePad
}

// flushSpans returns one such store per connection.
func (l *spanLog) flushSpans(conns int) []flushSpans {
	out := make([]flushSpans, conns)
	for i := range out {
		out[i].origin = l.t0
		out[i].spans = make([]span, 0, flushSpansPerSlice)
	}
	return out
}

func (f *flushSpans) add(t0, t1 time.Time, ops int) {
	if len(f.spans) == cap(f.spans) {
		f.dropped++
		return
	}
	f.spans = append(f.spans, span{Name: "client.flush",
		StartNs: int64(t0.Sub(f.origin)), EndNs: int64(t1.Sub(f.origin)), Ops: ops})
}

// adopt moves a connection's flush spans into the log, under parent.
func (l *spanLog) adopt(parent, stream int, f *flushSpans) {
	for _, s := range f.spans {
		s.ID, s.Parent, s.Stream = len(l.spans), parent, stream
		l.spans = append(l.spans, s)
	}
	l.dropped += f.dropped
}

// write stores the spans as JSON at path.
func (l *spanLog) write(path, workload string) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, l.dropped, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
