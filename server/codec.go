package server

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
	"time"

	"cuckoohash/internal/obs"
	"cuckoohash/internal/txn"
)

// The wire protocol (docs/PROTOCOL.md) is memcached-style text lines. One
// request per line, one response line per request (STATS responds with
// multiple lines terminated by END), so a client can write any number of
// requests before reading — responses come back in order.

// maxKeyLen matches memcached's key limit.
const maxKeyLen = 250

type opCode uint8

const (
	opGet opCode = iota
	opSet
	opSetEx
	opDel
	opTTL
	opStats
	opQuit
	// Cluster verbs (docs/CLUSTER.md): node info, key migration to a
	// two-choice peer, and the inbound side of that bulk transfer.
	opCluster
	opMigrate
	opHandoff
	// Transaction verbs (docs/TRANSACTIONS.md): atomic read-modify-write
	// singles plus the MULTI…EXEC/DISCARD queueing envelope.
	opIncr
	opDecr
	opAdd
	opMaxUpdate
	opCAS
	opMulti
	opExec
	opDiscard
	// Observability verbs (docs/OBSERVABILITY.md): the server-measured
	// hot-key top-K.
	opHotKeys
	// Replication and lease verbs (docs/REPLICATION.md): versioned
	// reads/writes, the miss-lease anti-herd protocol, and the inbound
	// side of the asynchronous two-choice mirror stream.
	opGetV
	opSetV
	opLease
	opSetLease
	opReplSet
	opReplDel
	// opBad marks a line that failed to parse; it is never dispatched, only
	// reported in logs.
	opBad opCode = 0xff
)

// parseShape is how a verb's operands are framed on its request line.
type parseShape uint8

const (
	shapeBare    parseShape = iota // no operands; any is an error
	shapeIgnored                   // operands are not looked at (QUIT)
	shapeKey                       // <key>
	shapeStore                     // <key> <numeric word>... <value: the rest of the line>
	shapeCounter                   // <key> [delta]
	// Verbs with a frame of their own.
	shapeCAS
	shapeHotKeys
	shapeHandoff
	shapeMigrate
	shapeReplDel
)

// stageClass is a verb's row in the stage-latency table: verbs on the
// same code path share a class, because they share a stage profile.
type stageClass uint8

const (
	stGet stageClass = iota
	stSet
	stDel
	stTTL
	stStats
	stCluster
	stMigrate
	stHandoff
	stIncr
	stMaxUpdate
	stCAS
	stExec
	stHotKeys
	stLease // the fill-lease protocol: LEASE and its SETL fill
	stRepl  // inbound replication
	stOther // QUIT, MULTI bookkeeping and bad lines
)

// verb is one row of the verb table: everything the server knows about a
// wire verb apart from what executing it does.
type verb struct {
	name  string
	shape parseShape
	// words is how many numeric words the frame requires: between key and
	// value for shapeStore, after the key for shapeCounter (whose delta
	// otherwise defaults to 1).
	words uint8
	stage stageClass
	// exempt verbs run even with -max-inflight saturated: they touch no
	// table (STATS, CLUSTER and HOTKEYS are how an operator looks at an
	// overloaded node, QUIT is how a drain ends) or only this connection's
	// MULTI state.
	exempt bool
	// queue is the txn.OpKind the verb queues as inside MULTI, plus one;
	// zero means the verb has no transactional meaning and poisons the
	// transaction.
	queue txn.OpKind
}

// verbs is the verb table, indexed by opCode: the one place a verb's wire
// name, operand frame, stage class, in-flight exemption and MULTI kind
// are declared. The parser matches names in row order, so GET and SET
// lead.
var verbs = [...]verb{
	opGet:       {name: "GET", shape: shapeKey, stage: stGet, queue: 1 + txn.OpGet},
	opSet:       {name: "SET", shape: shapeStore, stage: stSet, queue: 1 + txn.OpSet},
	opSetEx:     {name: "SETEX", shape: shapeStore, words: 1, stage: stSet, queue: 1 + txn.OpSet},
	opDel:       {name: "DEL", shape: shapeKey, stage: stDel, queue: 1 + txn.OpDel},
	opTTL:       {name: "TTL", shape: shapeKey, stage: stTTL},
	opStats:     {name: "STATS", shape: shapeBare, stage: stStats, exempt: true},
	opQuit:      {name: "QUIT", shape: shapeIgnored, stage: stOther, exempt: true},
	opCluster:   {name: "CLUSTER", shape: shapeBare, stage: stCluster, exempt: true},
	opMigrate:   {name: "MIGRATE", shape: shapeMigrate, stage: stMigrate},
	opHandoff:   {name: "HANDOFF", shape: shapeHandoff, stage: stHandoff},
	opIncr:      {name: "INCR", shape: shapeCounter, stage: stIncr, queue: 1 + txn.OpIncr},
	opDecr:      {name: "DECR", shape: shapeCounter, stage: stIncr, queue: 1 + txn.OpIncr},
	opAdd:       {name: "ADD", shape: shapeCounter, words: 1, stage: stIncr, queue: 1 + txn.OpIncr},
	opMaxUpdate: {name: "MAXUPDATE", shape: shapeCounter, words: 1, stage: stMaxUpdate, queue: 1 + txn.OpMax},
	opCAS:       {name: "CAS", shape: shapeCAS, stage: stCAS, queue: 1 + txn.OpCAS},
	opMulti:     {name: "MULTI", shape: shapeBare, stage: stOther, exempt: true},
	opExec:      {name: "EXEC", shape: shapeBare, stage: stExec},
	opDiscard:   {name: "DISCARD", shape: shapeBare, stage: stOther, exempt: true},
	opHotKeys:   {name: "HOTKEYS", shape: shapeHotKeys, stage: stHotKeys, exempt: true},
	opGetV:      {name: "GETV", shape: shapeKey, stage: stGet},
	opSetV:      {name: "SETV", shape: shapeStore, words: 1, stage: stSet},
	opLease:     {name: "LEASE", shape: shapeKey, stage: stLease},
	opSetLease:  {name: "SETL", shape: shapeStore, words: 2, stage: stLease},
	opReplSet:   {name: "REPLSET", shape: shapeStore, words: 2, stage: stRepl},
	opReplDel:   {name: "REPLDEL", shape: shapeReplDel, stage: stRepl},
}

// notAVerb is the row of every opCode outside the table (opBad).
var notAVerb = verb{name: "INVALID", stage: stOther}

// row returns op's verb-table row.
func (o opCode) row() *verb {
	if int(o) < len(verbs) {
		return &verbs[o]
	}
	return &notAVerb
}

// String names the op for structured logs.
func (o opCode) String() string { return o.row().name }

// stageVerbs labels the stage-latency table's rows, indexed by
// stageClass: a class is named after the first verb declared in it.
var stageVerbs = func() []string {
	labels := make([]string, stOther+1)
	labels[stRepl], labels[stOther] = "REPL", "other"
	for i := range verbs {
		if c := verbs[i].stage; labels[c] == "" {
			labels[c] = verbs[i].name
		}
	}
	return labels
}()

// request is one parsed protocol line. key and val alias the connection's
// read buffer and are only valid until the next read; handlers that store
// them must copy (conn.go does, via string conversions).
type request struct {
	op  opCode
	key []byte
	ttl time.Duration
	val []byte
	// payload is the HANDOFF body length; the bytes follow the request
	// line on the wire and are consumed by the handler.
	payload uint64
	// mig carries the MIGRATE arguments. Unlike key/val it is fully
	// copied out of the read buffer — migrations are rare admin
	// operations, so the allocations are off the hot path.
	mig *migrateArgs
	// delta is the INCR/DECR/ADD operand or the MAXUPDATE target.
	delta int64
	// old is the CAS expected value; like key/val it aliases the read
	// buffer. val holds the CAS replacement.
	old []byte
	// trace is the wire trace ID from an optional "TRACE <id>" prefix
	// (docs/OBSERVABILITY.md); nil when the request is untraced. Like
	// key/val it aliases the read buffer.
	trace []byte
	// ver carries REPLSET/REPLDEL's version word and SETL's lease token
	// (both unsigned 64-bit words); delta doubles as REPLSET's absolute
	// expireAt (unix nanoseconds, 0 = no expiry).
	ver uint64
}

// migrateArgs are the parsed operands of a MIGRATE line:
//
//	MIGRATE <mode> <dest> <self> <seed> <max> <ring-csv>
//
// mode "home" moves keys that do not belong on this node (self is not
// one of their two candidates under the ring) — the repair pass after a
// membership change and the whole of a drain; mode "shed" moves
// correctly-placed keys to their other candidate — the load-balancing
// kick-out. dest is where keys go, self is this node's ring name, seed
// fixes the placement hash, max bounds moved keys (0 = unlimited), and
// ring-csv is the comma-separated membership the candidates are computed
// against.
type migrateArgs struct {
	mode string
	dest string
	self string
	seed uint64
	max  int
	ring string
}

var (
	errEmpty      = errors.New("empty command")
	errUnknownCmd = errors.New("unknown command")
	errBadArgs    = errors.New("wrong number of arguments")
	errKeyTooLong = errors.New("key exceeds 250 bytes")
	errBadTTL     = errors.New("ttl must be a positive integer (milliseconds)")

	errBadPayload = errors.New("handoff payload must be 1.." + handoffMaxStr + " bytes")
	errBadMigrate = errors.New("migrate wants: MIGRATE <home|shed> <dest> <self> <seed> <max> <ring-csv>")

	errBadDelta = errors.New("delta must be a signed 64-bit integer")

	errBadTrace   = errors.New("trace wants: TRACE <id (1..64 bytes)> <command...>")
	errBadHotKeys = errors.New("hotkeys wants: HOTKEYS [count (1.." + hotKeysMaxStr + ")]")

	errBadVer   = errors.New("version must be an unsigned 64-bit integer")
	errBadToken = errors.New("lease token must be 1..16 hex digits")
)

// nextToken splits the first space-separated token off line.
func nextToken(line []byte) (tok, rest []byte) {
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		return line[:i], line[i+1:]
	}
	return line, nil
}

// parseRequest parses one protocol line (already stripped of \r\n).
// GET and SET parse without copying — key and val alias the line;
// numeric-operand verbs copy their token for strconv.
//
//cuckoo:hotpath the wire decoder; GET/SET lines parse allocation-free
func parseRequest(line []byte) (request, error) {
	return parseRequest1(line, true)
}

// parseRequest1 is parseRequest with the TRACE prefix gated: the prefix
// is legal exactly once, at the start of the line.
func parseRequest1(line []byte, allowTrace bool) (request, error) {
	cmd, rest := nextToken(line)
	if len(cmd) == 0 {
		return request{}, errEmpty
	}
	if asciiEqualFold(cmd, "TRACE") {
		if !allowTrace {
			return request{}, errBadTrace
		}
		id, rest2 := nextToken(rest)
		if len(id) == 0 || len(id) > maxTraceIDLen || rest2 == nil {
			return request{}, errBadTrace
		}
		req, err := parseRequest1(rest2, false)
		if err != nil {
			return request{}, err
		}
		req.trace = id
		return req, nil
	}
	for i := range verbs {
		v := &verbs[i]
		if !asciiEqualFold(cmd, v.name) {
			continue
		}
		// The row's shape says how the rest of the line is framed.
		op := opCode(i)
		switch v.shape {
		case shapeBare:
			if len(rest) != 0 {
				return request{}, errBadArgs
			}
			return request{op: op}, nil
		case shapeIgnored:
			return request{op: op}, nil
		case shapeKey:
			return parseKeyOnly(op, rest)
		case shapeStore:
			return parseStore(op, rest, int(v.words))
		case shapeCounter:
			return parseCounter(op, rest, v.words != 0)
		case shapeCAS:
			return parseCAS(rest)
		case shapeHotKeys:
			return parseHotKeys(rest)
		case shapeHandoff:
			return parseHandoff(rest)
		case shapeMigrate:
			return parseMigrate(rest)
		case shapeReplDel:
			return parseReplDel(rest)
		}
	}
	return request{}, errUnknownCmd
}

// parseStore parses the SET-shaped verbs, which share one frame — a key,
// zero to two numeric words, and the value as the rest of the line:
//
//	SET     <key> <val>
//	SETEX   <key> <ttl_ms> <val>             (ttl must be positive)
//	SETV    <key> <ttl_ms> <val>             (ttl 0 = no expiry)
//	SETL    <key> <token> <ttl_ms> <val>     (token: the hex word a LEASE grant handed out)
//	REPLSET <key> <ver> <expireAtNs> <val>   (origin version; absolute expiry, 0 = none)
//
// SETV's ttl 0 lets one verb cover both SET and SETEX shapes for
// version-aware clients; REPLSET's expiry is absolute unix nanoseconds
// so TTLs survive the hop without clock math. The token and version
// ride in req.ver, REPLSET's expiry in req.delta.
func parseStore(op opCode, rest []byte, nWords int) (request, error) {
	var words [2][]byte
	key, rest := nextToken(rest)
	ok := len(key) != 0
	for i := 0; i < nWords; i++ {
		words[i], rest = nextToken(rest)
		ok = ok && len(words[i]) != 0
	}
	if !ok || rest == nil {
		return request{}, errBadArgs
	}
	if len(key) > maxKeyLen {
		return request{}, errKeyTooLong
	}
	req := request{op: op, key: key, val: rest}
	var err error
	switch op {
	case opSetEx, opSetV:
		req.ttl, err = parseTTL(words[0], op == opSetV)
	case opSetLease:
		if len(words[0]) > 16 {
			return request{}, errBadToken
		}
		//lint:allow cuckoovet:allocfree lease fills happen once per miss storm; the token copy is bounded to 16 bytes
		if req.ver, err = strconv.ParseUint(string(words[0]), 16, 64); err != nil || req.ver == 0 {
			return request{}, errBadToken
		}
		req.ttl, err = parseTTL(words[1], true)
	case opReplSet:
		if req.ver, err = parseVer(words[0]); err != nil {
			return request{}, err
		}
		//lint:allow cuckoovet:allocfree mirror traffic copies its numeric tokens for strconv; bounded to 20 bytes each
		if req.delta, err = strconv.ParseInt(string(words[1]), 10, 64); err != nil || req.delta < 0 {
			return request{}, errBadDelta
		}
	}
	if err != nil {
		return request{}, err
	}
	return req, nil
}

// parseTTL parses a millisecond TTL word; zero (no expiry) is legal only
// where the verb says so.
func parseTTL(tok []byte, zeroOK bool) (time.Duration, error) {
	//lint:allow cuckoovet:allocfree the TTL token is copied for strconv; TTL-carrying verbs pay one bounded copy, GET/SET none
	ms, err := strconv.ParseUint(string(tok), 10, 32)
	if err != nil || (ms == 0 && !zeroOK) {
		return 0, errBadTTL
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// parseVer parses a mirror verb's origin version word (never zero).
func parseVer(tok []byte) (uint64, error) {
	//lint:allow cuckoovet:allocfree mirror traffic copies its version token for strconv; bounded to 20 bytes
	ver, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil || ver == 0 {
		return 0, errBadVer
	}
	return ver, nil
}

// parseReplDel parses REPLDEL <key> <ver>, the mirrored tombstone.
func parseReplDel(rest []byte) (request, error) {
	key, rest2 := nextToken(rest)
	verTok, extra := nextToken(rest2)
	if len(key) == 0 || len(verTok) == 0 || extra != nil {
		return request{}, errBadArgs
	}
	if len(key) > maxKeyLen {
		return request{}, errKeyTooLong
	}
	ver, err := parseVer(verTok)
	if err != nil {
		return request{}, err
	}
	return request{op: opReplDel, key: key, ver: ver}, nil
}

// maxTraceIDLen mirrors obs.MaxTraceIDLen without importing obs into
// the codec; a compile-time assertion in conn.go keeps them equal.
const maxTraceIDLen = 64

// hotKeysMax bounds the HOTKEYS count operand: the server tracks only a
// few dozen keys per sketch, so asking for more is a client bug.
const (
	hotKeysMax    = 128
	hotKeysMaxStr = "128"
)

// parseHotKeys parses HOTKEYS [count]; count defaults to 10 and rides
// in req.delta.
func parseHotKeys(rest []byte) (request, error) {
	n := int64(10)
	tok, extra := nextToken(rest)
	if len(tok) != 0 {
		if extra != nil {
			return request{}, errBadHotKeys
		}
		//lint:allow cuckoovet:allocfree HOTKEYS is an operator verb; its count token is copied for strconv
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || v < 1 || v > hotKeysMax {
			return request{}, errBadHotKeys
		}
		n = v
	}
	return request{op: opHotKeys, delta: n}, nil
}

// parseCounter parses the arithmetic verbs:
//
//	INCR <key> [delta]   DECR <key> [delta]   (delta defaults to 1)
//	ADD <key> <delta>    MAXUPDATE <key> <n>  (operand required)
//
// delta is a signed 64-bit integer; DECR negates it at parse time so the
// dispatch layer sees a single add-delta operation.
func parseCounter(op opCode, rest []byte, operandRequired bool) (request, error) {
	key, rest2 := nextToken(rest)
	if len(key) == 0 {
		return request{}, errBadArgs
	}
	if len(key) > maxKeyLen {
		return request{}, errKeyTooLong
	}
	delta := int64(1)
	tok, extra := nextToken(rest2)
	if len(tok) != 0 {
		if extra != nil {
			return request{}, errBadArgs
		}
		//lint:allow cuckoovet:allocfree the delta token is copied for strconv; counter verbs pay one bounded copy, GET/SET none
		d, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return request{}, errBadDelta
		}
		delta = d
	} else if operandRequired {
		return request{}, errBadArgs
	}
	if op == opDecr {
		delta = -delta
	}
	return request{op: op, key: key, delta: delta}, nil
}

// parseCAS parses CAS <key> <old> <new>. old is a single token (a CAS
// against a value containing spaces is not expressible in this text
// protocol); new is the rest of the line and may contain spaces.
func parseCAS(rest []byte) (request, error) {
	key, rest2 := nextToken(rest)
	old, newVal := nextToken(rest2)
	if len(key) == 0 || len(old) == 0 || newVal == nil {
		return request{}, errBadArgs
	}
	if len(key) > maxKeyLen {
		return request{}, errKeyTooLong
	}
	return request{op: opCAS, key: key, old: old, val: newVal}, nil
}

// handoffMaxBytes bounds one HANDOFF bulk payload. A length past it is a
// protocol violation that closes the connection: the payload bytes are
// already in flight behind the request line, so the stream cannot be
// resynchronized by skipping the line alone.
const (
	handoffMaxBytes = 64 << 20
	handoffMaxStr   = "67108864"
)

func parseHandoff(rest []byte) (request, error) {
	tok, extra := nextToken(rest)
	if len(tok) == 0 || extra != nil {
		return request{}, errBadArgs
	}
	//lint:allow cuckoovet:allocfree HANDOFF is a rare bulk-transfer verb; its length token is copied for strconv
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil || n == 0 || n > handoffMaxBytes {
		return request{}, errBadPayload
	}
	return request{op: opHandoff, payload: n}, nil
}

//cuckoo:coldpath MIGRATE is a rare admin verb; it copies every operand out of the read buffer by design
func parseMigrate(rest []byte) (request, error) {
	fields := bytes.Fields(rest)
	if len(fields) != 6 {
		return request{}, errBadMigrate
	}
	mode := string(bytes.ToLower(fields[0]))
	if mode != "home" && mode != "shed" {
		return request{}, errBadMigrate
	}
	seed, err := strconv.ParseUint(string(fields[3]), 10, 64)
	if err != nil {
		return request{}, errBadMigrate
	}
	max, err := strconv.ParseUint(string(fields[4]), 10, 32)
	if err != nil {
		return request{}, errBadMigrate
	}
	return request{op: opMigrate, mig: &migrateArgs{
		mode: mode,
		dest: string(fields[1]),
		self: string(fields[2]),
		seed: seed,
		max:  int(max),
		ring: string(fields[5]),
	}}, nil
}

func parseKeyOnly(op opCode, rest []byte) (request, error) {
	key, extra := nextToken(rest)
	if len(key) == 0 || extra != nil {
		return request{}, errBadArgs
	}
	if len(key) > maxKeyLen {
		return request{}, errKeyTooLong
	}
	return request{op: op, key: key}, nil
}

// asciiEqualFold reports whether b equals the upper-case ASCII literal s
// case-insensitively, without allocating.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// Response writers. Each writes into the connection's buffered writer;
// nothing reaches the socket until the batch flush.

func writeOK(w *bufio.Writer) {
	w.WriteString("OK\n")
}

func writeMiss(w *bufio.Writer) {
	w.WriteString("MISS\n")
}

// Reply tags of the VALUE-shaped lines.
const (
	tagValue  = "VALUE "  // GET hit, EXEC read result: no version word
	tagValueV = "VALUEV " // GETV hit, LEASE live hit
	tagStale  = "STALE "  // LEASE: an expired copy served while a fill is in flight
)

// writeValue renders the VALUE-shaped replies: "VALUE <val>", or
// "<tag><ver> <val>" for the versioned tags (tagValue ignores ver). The
// version word precedes the value because values may contain spaces —
// parsers split twice and take the rest, like HOTKEY lines.
//
//cuckoo:hotpath the read path's reply writer
func writeValue(w *bufio.Writer, tag string, ver uint64, val string) {
	w.WriteString(tag)
	if tag != tagValue {
		writeUint(w, ver, 10)
		w.WriteByte(' ')
	}
	w.WriteString(val)
	w.WriteByte('\n')
}

func writeTTL(w *bufio.Writer, d time.Duration, persistent bool) {
	w.WriteString("TTL ")
	if persistent {
		w.WriteString("-1")
	} else {
		ms := d.Milliseconds()
		if ms < 1 {
			ms = 1 // live but sub-millisecond: never report 0 for a hit
		}
		w.WriteString(strconv.FormatInt(ms, 10))
	}
	w.WriteByte('\n')
}

func writeErr(w *bufio.Writer, err error) {
	w.WriteString("ERR ")
	w.WriteString(err.Error())
	w.WriteByte('\n')
}

// writeBlock renders the END-terminated name/value replies: one
// "<tag><name> <value>" line per Stat (STATS, CLUSTER).
func writeBlock(w *bufio.Writer, tag string, lines []Stat) {
	for _, s := range lines {
		w.WriteString(tag)
		w.WriteString(s.Name)
		w.WriteByte(' ')
		w.WriteString(s.Value)
		w.WriteByte('\n')
	}
	w.WriteString("END\n")
}

func writeConflict(w *bufio.Writer) {
	w.WriteString("CONFLICT\n")
}

func writeQueued(w *bufio.Writer) {
	w.WriteString("QUEUED\n")
}

// writeExecResults renders an EXEC reply: a header naming the result
// count, then one reply line per queued op in queue order.
func writeExecResults(w *bufio.Writer, results []txn.Result) {
	w.WriteString("EXEC ")
	w.WriteString(strconv.Itoa(len(results)))
	w.WriteByte('\n')
	for i := range results {
		switch results[i].Status {
		case txn.StatusOK:
			writeOK(w)
		case txn.StatusValue:
			writeValue(w, tagValue, 0, results[i].Value)
		case txn.StatusMiss:
			writeMiss(w)
		case txn.StatusConflict:
			writeConflict(w)
		default:
			w.WriteString("ERR ")
			w.WriteString(results[i].Err)
			w.WriteByte('\n')
		}
	}
}

// writeUint renders n in the given base straight into w's own buffer. A
// stack scratch would not do: bufio's Write hands its argument to an
// io.Writer interface call, so any scratch escapes to the heap — one
// allocation per versioned reply.
func writeUint(w *bufio.Writer, n uint64, base int) {
	if w.Available() < 20 { // the longest rendering: 2^64-1 in decimal
		// Make room, so the append below can never outgrow the buffer (on
		// a connection this moves the bytes into connbuf's spill, not onto
		// the socket). A write error is sticky in bufio and surfaces at the
		// batch flush.
		w.Flush()
	}
	//lint:allow cuckoovet:allocfree appends into the writer's spare capacity, which the check above guarantees is enough
	w.Write(strconv.AppendUint(w.AvailableBuffer(), n, base))
}

// writeCount renders the "<TAG> <n>" replies: MIGRATED, HANDOFF, VER (a
// versioned write's ack: SETV, accepted SETL) and WAIT (how many
// milliseconds a non-winning client should back off before retrying
// its LEASE).
func writeCount(w *bufio.Writer, tag string, n uint64) {
	w.WriteString(tag)
	writeUint(w, n, 10)
	w.WriteByte('\n')
}

// writeLease renders a granted fill token: "LEASE <token-hex> <ttl_ms>".
func writeLease(w *bufio.Writer, token uint64, ttlMS int64) {
	w.WriteString("LEASE ")
	writeUint(w, token, 16)
	w.WriteByte(' ')
	writeUint(w, uint64(ttlMS), 10)
	w.WriteByte('\n')
}

// writeStale is the REPLSET/REPLDEL "your write lost" reply: the local
// copy was newer, nothing was applied. Distinct from STALE-with-value so
// mirror senders can treat it as success without parsing further.
func writeStale(w *bufio.Writer) {
	w.WriteString("STALE\n")
}

// writeHotKeys renders a HOTKEYS reply: one "HOTKEY <count> <key>" line
// per tracked key, hottest first, then END. count precedes key because
// keys may contain spaces-free tokens of any content while count is
// always a single integer — parsers split twice and take the rest.
func writeHotKeys(w *bufio.Writer, items []obs.TopKItem) {
	for i := range items {
		w.WriteString("HOTKEY ")
		w.WriteString(strconv.FormatUint(items[i].Count, 10))
		w.WriteByte(' ')
		w.WriteString(items[i].Key)
		w.WriteByte('\n')
	}
	w.WriteString("END\n")
}
