package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies how a request ended, for flight-recorder records.
type Outcome uint8

const (
	// OutcomeOK: the request was served (including MISS — the protocol
	// worked; the key just wasn't there).
	OutcomeOK Outcome = iota
	// OutcomeErr: the dispatch returned an error reply.
	OutcomeErr
	// OutcomeBusy: rejected by the inflight gate.
	OutcomeBusy
	// OutcomeBad: the line failed to parse.
	OutcomeBad
)

var outcomeNames = [...]string{"ok", "err", "busy", "bad"}

// String returns the outcome's label as written in flight dumps.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// FlightRecord is one completed operation as remembered by the flight
// recorder: enough to reconstruct what the server was doing just before
// an incident, small enough (no key bytes, just a hash) to keep
// always-on recording cheap and keys out of debug endpoints.
type FlightRecord struct {
	Seq      uint64
	Verb     string
	Outcome  Outcome
	KeyHash  uint64
	TotalNs  int64
	Stages   [NumStages]int64
	traceLen uint8
	trace    [MaxTraceIDLen]byte
}

// SetTrace copies the wire trace ID into the record.
func (r *FlightRecord) SetTrace(id []byte) {
	n := len(id)
	if n > MaxTraceIDLen {
		n = MaxTraceIDLen
	}
	copy(r.trace[:n], id[:n])
	r.traceLen = uint8(n)
}

// Trace returns the record's trace ID ("" when the request carried
// none). Allocates; dump-path only.
func (r *FlightRecord) Trace() string { return string(r.trace[:r.traceLen]) }

// Flight is the always-on flight recorder: a sharded ring of the most
// recent operation records. Writers append under a per-shard mutex
// (uncontended — each connection sticks to one shard); a global atomic
// sequence number orders records across shards so dumps read as one
// timeline. A shard's ring is allocated by its first record, so a
// recorder costs what the shards its writers use cost, at most shards ×
// perShard records.
type Flight struct {
	seq      atomic.Uint64
	mask     uint64
	perShard int
	shards   []flightShard
}

type flightShard struct {
	mu   sync.Mutex
	next int
	recs []FlightRecord // nil until the shard's first record
	_    [24]byte       // pad to 64 bytes: keep shards off each other's cache lines
}

// NewFlight builds a recorder with the given shard count (rounded up to
// a power of two) and records per shard.
func NewFlight(shards, perShard int) *Flight {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if perShard < 1 {
		perShard = 1
	}
	return &Flight{mask: uint64(n - 1), perShard: perShard, shards: make([]flightShard, n)}
}

// Record remembers one completed operation. rec.Seq is assigned here;
// the rest is copied as given. Safe for concurrent use.
func (f *Flight) Record(shard uint64, rec *FlightRecord) {
	if f == nil {
		return
	}
	rec.Seq = f.seq.Add(1)
	sh := &f.shards[shard&f.mask]
	sh.mu.Lock()
	if sh.recs == nil {
		sh.recs = f.newRing()
	}
	sh.recs[sh.next] = *rec
	sh.next++
	if sh.next == len(sh.recs) {
		sh.next = 0
	}
	sh.mu.Unlock()
}

// newRing allocates one shard's ring; the caller holds the shard's mutex.
//
//cuckoo:coldpath runs once per shard a recorder ever writes, at most len(shards) times
func (f *Flight) newRing() []FlightRecord { return make([]FlightRecord, f.perShard) }

// Allocated returns the indexes of the shards whose rings exist, in
// ascending order: the shards that have taken a record.
func (f *Flight) Allocated() []int {
	if f == nil {
		return nil
	}
	var out []int
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		if sh.recs != nil {
			out = append(out, i)
		}
		sh.mu.Unlock()
	}
	return out
}

// Snapshot returns every recorded operation ordered by sequence number
// (oldest first); shards that never took a record contribute nothing.
func (f *Flight) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	var out []FlightRecord
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for j := range sh.recs {
			if sh.recs[j].Seq != 0 {
				out = append(out, sh.recs[j])
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteTo dumps the recorder as one line per record, oldest first. This
// is the /debug/flight format; keep it greppable, one key=value pair
// per column.
func (f *Flight) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for _, rec := range f.Snapshot() {
		n, err := fmt.Fprintf(w, "seq=%d verb=%s outcome=%s key=%016x trace=%s total=%s stages=%s\n",
			rec.Seq, rec.Verb, rec.Outcome, rec.KeyHash, rec.Trace(),
			time.Duration(rec.TotalNs), SummarizeStages(rec.Stages))
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Summary renders the most recent n records as a single compact string
// for structured-log incident dumps (slow op, shed, breaker open,
// panic).
func (f *Flight) Summary(n int) string {
	recs := f.Snapshot()
	if len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	var b []byte
	for i, rec := range recs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '[')
		b = append(b, rec.Verb...)
		b = append(b, ' ')
		b = append(b, rec.Outcome.String()...)
		b = append(b, ' ')
		b = append(b, time.Duration(rec.TotalNs).String()...)
		if rec.traceLen > 0 {
			b = append(b, ' ')
			b = append(b, rec.trace[:rec.traceLen]...)
		}
		b = append(b, ']')
	}
	if len(b) == 0 {
		return "none"
	}
	return string(b)
}
