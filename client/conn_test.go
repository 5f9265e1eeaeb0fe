package client

import (
	"net"
	"runtime"
	"testing"
)

// TestRestingConnMemory pins what a resting Conn costs its process: 300
// Conns that have each made one round trip hold at most 12 KB of heap
// apiece (about 131 KB with the fixed 64 KB buffer pair internal/connbuf
// replaced). The sockets and the fake server behind them are set up
// before the baseline, so the figure is the Conn's own.
func TestRestingConnMemory(t *testing.T) {
	const n = 300
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ready := make(chan struct{}, n) // one send per accepted connection
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go answerMiss(nc, ready)
		}
	}()
	raw := make([]net.Conn, 0, n)
	defer func() {
		for _, nc := range raw {
			nc.Close()
		}
	}()
	for range n {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, nc)
	}
	for range n {
		<-ready
	}
	conns := make([]*Conn, 0, n)
	before := liveHeap()
	for _, nc := range raw {
		c := newConn(nc, 0)
		if _, found, err := c.Get("k"); err != nil || found {
			t.Fatalf("Get k = %v, %v; want a miss", found, err)
		}
		conns = append(conns, c)
	}
	perConn := (float64(liveHeap()) - float64(before)) / n
	runtime.KeepAlive(conns)
	t.Logf("%.1f KB of heap per resting Conn", perConn/1e3)
	if perConn > 12e3 {
		t.Errorf("a resting Conn holds %.1f KB of heap, want <= 12 KB", perConn/1e3)
	}
}

var missReply = []byte("MISS\n")

// answerMiss replies MISS to every line nc sends until it closes; its
// buffer exists before it signals ready.
func answerMiss(nc net.Conn, ready chan<- struct{}) {
	defer nc.Close()
	buf := make([]byte, 64)
	ready <- struct{}{}
	for {
		n, err := nc.Read(buf)
		if err != nil {
			return
		}
		for _, b := range buf[:n] {
			if b == '\n' {
				nc.Write(missReply)
			}
		}
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
