// Package connbuf is the buffered pair both ends of a cuckood connection
// read and write through (server/conn.go, client.Conn). Each direction
// rests at Rest bytes, grows when what a batch carries does not fit, and
// falls back to Rest after fallBackAfter batches in a row that used less
// than a quarter of what it had grown to. An idle connection costs 4 KB a
// direction, and a batch still costs what it did with fixed 64 KB buffers:
// one write for up to 64 KB, and one read once the reader has grown to it.
package connbuf

import (
	"bufio"
	"bytes"
	"errors"
	"io"
)

const (
	// Rest is what each direction holds between batches that fit in it.
	Rest = 4 << 10
	// fallBackAfter is how many batches in a row must use less than a
	// quarter of a grown buffer before it falls back to Rest.
	fallBackAfter = 4
	// maxWrite is the most a Writer sends in one write: its bufio.Writer
	// grows no further, and a batch past it leaves in maxWrite-sized
	// writes, as it did through the 64 KB bufio.Writer this package
	// replaced.
	maxWrite = 64 << 10
)

// ErrLineTooLong is ReadLine's error for a line past the Reader's limit.
var ErrLineTooLong = errors.New("line too long")

// decay counts the batches in a row that used less than a quarter of a
// buffer.
type decay int

// settle records one batch that used used bytes of size and reports
// whether the buffer should fall back to rest.
func (d *decay) settle(used, size int) bool {
	if used >= size/4 {
		*d = 0
		return false
	}
	if *d++; *d < fallBackAfter {
		return false
	}
	*d = 0
	return true
}

// Reader buffers a connection's incoming bytes for ReadLine. Its buffer
// doubles when a read filled it (more is likely waiting) or when a line
// does not fit; a batch starts each time it must read with nothing
// buffered, and that is when it may fall back to Rest.
type Reader struct {
	src   io.Reader
	buf   []byte // buf[r:w] is unread
	r, w  int
	max   int  // longest line ReadLine returns, '\n' included
	full  bool // the last read filled buf
	peak  int  // most bytes buf held at once in this batch
	decay decay
}

// NewReader returns a Reader over src whose lines may be at most max
// bytes, '\n' included.
func NewReader(src io.Reader, max int) *Reader {
	return &Reader{src: src, buf: make([]byte, Rest), max: max}
}

// Buffered is how many bytes are held unread; 0 is a batch boundary.
func (b *Reader) Buffered() int { return b.w - b.r }

// ReadLine returns the next line, '\n' included. The line aliases the
// buffer and is valid until the next call.
func (b *Reader) ReadLine() ([]byte, error) {
	for seen := 0; ; {
		if i := bytes.IndexByte(b.buf[b.r+seen:b.w], '\n'); i >= 0 {
			line := b.buf[b.r : b.r+seen+i+1]
			b.r += len(line)
			return line, nil
		}
		if seen = b.w - b.r; seen >= b.max {
			return nil, ErrLineTooLong
		}
		if err := b.fill(); err != nil {
			return nil, err
		}
	}
}

// Read serves a payload that follows a line (HANDOFF): buffered bytes
// first, then straight from src.
func (b *Reader) Read(p []byte) (int, error) {
	if b.r == b.w {
		return b.src.Read(p)
	}
	n := copy(p, b.buf[b.r:b.w])
	b.r += n
	return n, nil
}

// fill moves the unread bytes to the front of the buffer ReadLine needs
// next — copying them only when they move — and reads once from src
// behind them.
func (b *Reader) fill() error {
	unread := b.buf[b.r:b.w]
	switch {
	case len(unread) == 0 && b.decay.settle(b.peak, len(b.buf)) && len(b.buf) > Rest:
		b.buf = make([]byte, Rest)
	case (b.full || len(unread) == len(b.buf)) && len(b.buf) < b.max:
		next := make([]byte, min(2*len(b.buf), b.max))
		copy(next, unread)
		b.buf = next
	case b.r > 0:
		copy(b.buf, unread)
	}
	if len(unread) == 0 {
		b.peak = 0
	}
	b.r, b.w = 0, len(unread)
	n, err := b.src.Read(b.buf[b.w:])
	b.w += n
	b.full = b.w == len(b.buf)
	b.peak = max(b.peak, b.w)
	if n > 0 {
		return nil
	}
	return err
}

// Writer is a bufio.Writer that rests at Rest bytes. After a batch that
// overflowed it, it is replaced by one doubled as often as the batch
// needed, up to maxWrite; after fallBackAfter batches in a row that used
// less than a quarter of it, by a Rest-sized one. The batch that overflows
// waits in a spill, so it too leaves in one write (past maxWrite, in
// maxWrite-sized writes). Code that renders replies takes the embedded
// *bufio.Writer, which changes between batches; Flush must be this one,
// because the bufio.Writer's own Flush only moves its bytes into the spill.
type Writer struct {
	*bufio.Writer
	out spill
}

// spill is the Writer's destination. Inside Flush, with nothing spilled,
// it passes the bufio.Writer's bytes straight to dst; otherwise it holds
// them for the batch's one write. It lives for one batch: the next such
// batch fits the bufio.Writer that replaces the one it overflowed.
type spill struct {
	dst      io.Writer
	buf      []byte // what this batch's bufio.Writer could not hold
	batch    int    // bytes written this batch
	flushing bool
	decay    decay
}

// NewWriter returns a Writer onto dst.
func NewWriter(dst io.Writer) *Writer {
	w := &Writer{out: spill{dst: dst}}
	w.Writer = bufio.NewWriterSize(&w.out, Rest)
	return w
}

// Flush sends everything written since the last Flush, in one write
// unless the batch passed maxWrite, and sizes the bufio.Writer for the
// next batch.
func (w *Writer) Flush() error {
	o := &w.out
	o.flushing = true
	err := w.Writer.Flush()
	if err == nil {
		err = o.send()
	}
	o.flushing, o.buf = false, nil
	size := w.Size()
	switch small := o.decay.settle(o.batch, size); {
	case o.batch > size && size < maxWrite:
		for size < o.batch && size < maxWrite {
			size *= 2
		}
		w.Writer = bufio.NewWriterSize(o, size)
	case small && size > Rest:
		w.Writer = bufio.NewWriterSize(o, Rest)
	}
	o.batch = 0
	return err
}

func (o *spill) Write(p []byte) (int, error) {
	if o.flushing && len(o.buf) == 0 {
		o.batch += len(p)
		return o.dst.Write(p)
	}
	return put(o, p)
}

// WriteString takes a long string the bufio.Writer passes through whole
// (a large value) without copying it into the bufio.Writer first.
func (o *spill) WriteString(s string) (int, error) { return put(o, s) }

func put[T string | []byte](o *spill, p T) (int, error) {
	n := len(p)
	o.batch += n
	for len(o.buf)+len(p) > maxWrite {
		k := maxWrite - len(o.buf)
		o.buf = append(o.buf, p[:k]...)
		p = p[k:]
		if err := o.send(); err != nil {
			return 0, err
		}
	}
	o.buf = append(o.buf, p...)
	return n, nil
}

func (o *spill) send() error {
	if len(o.buf) == 0 {
		return nil
	}
	_, err := o.dst.Write(o.buf)
	o.buf = o.buf[:0]
	return err
}
