package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The load the benchmark applies is sized for a 2-CPU host and fixed, so
// numbers from different hosts differ by the host, not by the harness.
const (
	benchProcs = 2   // GOMAXPROCS, connections and worker goroutines
	benchGOGC  = 100 // garbage collector target, percent
)

// linePad separates what one goroutine writes from what another does.
// Two counters that share a 64-byte cache line are stolen back and forth
// by their writers' CPUs on every update; whether two heap objects share
// one is the allocator's luck, which would make a run fast or slow by
// chance. Everything a timed loop writes sits between two of these.
type linePad [64]byte

// hostInfo is the noise record printed with every result.
type hostInfo struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GOGC         int     `json:"gogc"`
	GoVersion    string  `json:"go_version"`
	Kernel       string  `json:"kernel"`
	LoadAvgStart float64 `json:"loadavg_start"`
	LoadAvgEnd   float64 `json:"loadavg_end"`
}

func readHost() hostInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // best effort: absent off Linux
	return hostInfo{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOGC:         benchGOGC,
		GoVersion:    runtime.Version(),
		Kernel:       strings.TrimSpace(string(kernel)),
		LoadAvgStart: loadAvg(),
	}
}

// loadAvg is the 1-minute load average, or -1 where /proc has none.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	first, _, _ := strings.Cut(string(b), " ")
	v, err := strconv.ParseFloat(first, 64)
	if err != nil {
		return -1
	}
	return v
}

// usage is the process's cumulative CPU time and voluntary context
// switches, from getrusage.
type usage struct {
	user, sys time.Duration
	vcsw      int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
		vcsw: int64(ru.Nvcsw),
	}
}

func (u usage) sub(o usage) usage {
	return usage{user: u.user - o.user, sys: u.sys - o.sys, vcsw: u.vcsw - o.vcsw}
}

func (u usage) add(o usage) usage {
	return usage{user: u.user + o.user, sys: u.sys + o.sys, vcsw: u.vcsw + o.vcsw}
}

func (u usage) cpu() time.Duration { return u.user + u.sys }

// liveHeap forces a collection and returns the bytes of live heap
// objects and the bytes of heap spans in use.
func liveHeap() (alloc, inuse uint64) {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's sweep finalised
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapInuse
}
