package connbuf

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// batches is a source that hands out one queued batch at a time, as much
// of it per Read as fits — a socket whose sender's write has fully
// arrived — and counts the reads.
type batches struct {
	queue [][]byte
	reads int
}

func (s *batches) Read(p []byte) (int, error) {
	if len(s.queue) == 0 {
		return 0, io.EOF
	}
	s.reads++
	n := copy(p, s.queue[0])
	if s.queue[0] = s.queue[0][n:]; len(s.queue[0]) == 0 {
		s.queue = s.queue[1:]
	}
	return n, nil
}

// readBatch reads the lines of one batch and reports how many reads it took.
func readBatch(t *testing.T, r *Reader, src *batches, want ...string) int {
	t.Helper()
	before := src.reads
	for _, w := range want {
		line, err := r.ReadLine()
		if err != nil || string(line) != w {
			t.Fatalf("ReadLine = %.20q (%d bytes), %v; want %.20q (%d bytes)", line, len(line), err, w, len(w))
		}
	}
	if r.Buffered() != 0 {
		t.Fatalf("%d bytes left after the batch", r.Buffered())
	}
	return src.reads - before
}

func TestReaderGrowsWithTheBatchAndFallsBack(t *testing.T) {
	small := "GET k\n"
	big := "SET k " + strings.Repeat("v", 60<<10) + "\n"
	src := &batches{}
	r := NewReader(src, 64<<10)
	for range 3 {
		src.queue = append(src.queue, []byte(big))
	}
	for range fallBackAfter + 1 {
		src.queue = append(src.queue, []byte(small))
	}
	// At rest a 60 KB line takes a read per doubling; once grown, one read,
	// as it took through a fixed 64 KB buffer.
	if n := readBatch(t, r, src, big); n != 5 {
		t.Errorf("first 60 KB line took %d reads, want 5 (4, 8, 16, 32, 64 KB)", n)
	}
	for range 2 {
		if n := readBatch(t, r, src, big); n != 1 {
			t.Errorf("60 KB line on a grown reader took %d reads, want 1", n)
		}
	}
	if len(r.buf) != 64<<10 {
		t.Fatalf("grew to %d bytes, want 64 KB", len(r.buf))
	}
	for i := range fallBackAfter + 1 {
		readBatch(t, r, src, small)
		// The batch that reads small line i settles the batch before it.
		if grown := len(r.buf) > Rest; grown != (i < fallBackAfter) {
			t.Fatalf("after %d small batches the buffer is %d bytes", i+1, len(r.buf))
		}
	}
}

func TestReaderLineLimit(t *testing.T) {
	const max = 64 << 10
	fits := strings.Repeat("x", max-1) + "\n"
	src := &batches{queue: [][]byte{[]byte(fits + "GET k\n")}}
	r := NewReader(src, max)
	readBatch(t, r, src, fits, "GET k\n")

	src.queue = [][]byte{[]byte(strings.Repeat("x", max) + "\n")}
	if line, err := r.ReadLine(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("a %d-byte line: ReadLine = %d bytes, %v; want ErrLineTooLong", max+1, len(line), err)
	}

	// The client's reader: a line of any length.
	huge := strings.Repeat("y", 1<<20) + "\n"
	src = &batches{queue: [][]byte{[]byte(huge)}}
	readBatch(t, NewReader(src, math.MaxInt), src, huge)
}

func TestReaderReadServesBufferedBytesFirst(t *testing.T) {
	src := &batches{queue: [][]byte{[]byte("HANDOFF 8\nabc"), []byte("defgh")}}
	r := NewReader(src, math.MaxInt)
	if line, err := r.ReadLine(); err != nil || string(line) != "HANDOFF 8\n" {
		t.Fatalf("ReadLine = %q, %v", line, err)
	}
	payload := make([]byte, 8)
	if _, err := io.ReadFull(r, payload); err != nil || string(payload) != "abcdefgh" {
		t.Fatalf("payload = %q, %v", payload, err)
	}
}

// writes records each Write it is handed.
type writes [][]byte

func (w *writes) Write(p []byte) (int, error) {
	*w = append(*w, bytes.Clone(p))
	return len(p), nil
}

func TestWriterGrowsWithTheBatchAndFallsBack(t *testing.T) {
	var dst writes
	w := NewWriter(&dst)
	val := strings.Repeat("v", 60<<10)
	for i := range 2 {
		// The replies of one batch: small, a 60 KB value, small. The first
		// overflows the resting writer and leaves through the spill; the
		// second fits the writer that replaced it.
		w.WriteString("OK\n")
		w.WriteString("VALUE ")
		w.WriteString(val)
		w.WriteByte('\n')
		w.WriteString("MISS\n")
		if spilled := w.out.buf != nil; spilled != (i == 0) {
			t.Fatalf("batch %d: spilled %v", i, spilled)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := "OK\nVALUE " + val + "\nMISS\n"; len(dst) != 1 || string(dst[0]) != want {
			t.Fatalf("batch %d left in %d writes, want 1 carrying %d bytes", i, len(dst), len(want))
		}
		if w.Size() != 64<<10 {
			t.Fatalf("after batch %d the writer holds %d bytes, want 64 KB", i, w.Size())
		}
		dst = dst[:0]
	}
	for i := range fallBackAfter {
		w.WriteString("OK\n")
		w.Flush()
		if grown := w.Size() > Rest; grown != (i < fallBackAfter-1) {
			t.Fatalf("after %d small batches the writer holds %d bytes", i+1, w.Size())
		}
	}
	if len(dst) != fallBackAfter {
		t.Fatalf("%d small batches left in %d writes", fallBackAfter, len(dst))
	}
}

// TestWriterStreamsPastMaxWrite pins the bound on what one batch holds
// back: a 1 MiB reply leaves in 64 KB writes, as it did through a 64 KB
// bufio.Writer.
func TestWriterStreamsPastMaxWrite(t *testing.T) {
	var dst writes
	w := NewWriter(&dst)
	val := strings.Repeat("v", 1<<20)
	w.WriteString("VALUE ")
	w.WriteString(val)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i, p := range dst {
		if len(p) > 64<<10 {
			t.Errorf("write %d carries %d bytes, more than 64 KB", i, len(p))
		}
		got = append(got, p...)
	}
	if string(got) != "VALUE "+val+"\n" {
		t.Fatalf("sent %d bytes, want %d", len(got), len(val)+7)
	}
	if want := (len(got) + 64<<10 - 1) / (64 << 10); len(dst) != want {
		t.Errorf("1 MiB left in %d writes, want %d", len(dst), want)
	}
}
