package main

import (
	"strconv"

	"cuckoohash/internal/hashfn"
	"cuckoohash/internal/workload"
)

// Wire keys are 16 bytes ("k" + 15 digits) and values 32 bytes derived
// from the key's index alone, so every hit can be checked whatever order
// SETs arrived in.
const (
	keyLen = 16
	valLen = 32
)

// keyspace holds every key and value of a workload's universe, built
// once per process so the timed loops only index it.
type keyspace struct {
	keys     []string
	keyBytes [][]byte
	vals     []string
}

func newKeyspace(n int) *keyspace {
	ks := &keyspace{
		keys:     make([]string, n),
		keyBytes: make([][]byte, n),
		vals:     make([]string, n),
	}
	kbuf := make([]byte, n*keyLen)
	var tmp [valLen]byte
	for i := range n {
		k := kbuf[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
		fillKey(k, i)
		ks.keyBytes[i] = k
		ks.keys[i] = string(k)
		fillValue(tmp[:], i)
		ks.vals[i] = string(tmp[:])
	}
	return ks
}

func fillKey(dst []byte, i int) {
	dst[0] = 'k'
	for j := 1; j < keyLen; j++ {
		dst[j] = '0'
	}
	d := strconv.AppendInt(nil, int64(i), 10)
	copy(dst[keyLen-len(d):], d)
}

func fillValue(dst []byte, i int) {
	const hex = "0123456789abcdef"
	a, b := hashfn.SplitMix64(uint64(i)), hashfn.SplitMix64(^uint64(i))
	for j := range 16 {
		dst[j] = hex[a>>(60-4*uint(j))&0xf]
		dst[16+j] = hex[b>>(60-4*uint(j))&0xf]
	}
}

// opStream is one connection's (or worker's) deterministic sequence of
// operations: which key, and whether to write it. Draws come from
// internal/workload, seeded from the run seed and the stream's index.
type opStream struct {
	mix      *workload.OpGen
	rnd      *workload.Rand
	zipf     *workload.ZipfKeys
	universe uint64
	// pad keeps the next stream's generators off this one's cache lines.
	// A workload.Rand is a 16-byte heap object that its goroutine writes
	// on every draw, and the allocator packs objects of one size side by
	// side: two streams built one after the other would share a line and
	// their goroutines would steal it from each other on every operation
	// (measured: table-lookup ran at 6.8 or at 10.5 Mop/s, by the luck of
	// the alignment). A line's worth of spare generators in between makes
	// each goroutine the only writer of its lines (the paper's P1).
	pad [8]*workload.Rand
}

func streamSeed(seed uint64, stream int) uint64 {
	return hashfn.SplitMix64(seed ^ uint64(stream+1)<<40)
}

// newOpStream draws keys from [0, universe), uniformly or (zipfTheta > 0)
// with Zipfian popularity, and writes with probability setFrac.
func newOpStream(seed uint64, stream int, universe int, setFrac, zipfTheta float64) *opStream {
	s := streamSeed(seed, stream)
	o := &opStream{
		mix:      workload.NewOpGen(workload.Mix{InsertFrac: setFrac}, s),
		rnd:      workload.NewRand(s + 1),
		universe: uint64(universe),
	}
	if zipfTheta > 0 {
		o.zipf = workload.NewZipfKeys(s+2, uint64(universe), zipfTheta)
	}
	for i := range o.pad {
		o.pad[i] = workload.NewRand(0)
	}
	return o
}

func (o *opStream) next() (idx int, set bool) {
	set = o.mix.Next() == workload.OpInsert
	if o.zipf != nil {
		// ZipfKeys scrambles the rank over the 64-bit space; folding it
		// back keeps the popularity skew and lands inside the universe.
		return int(o.zipf.NextKey() % o.universe), set
	}
	return int(o.rnd.Intn(o.universe)), set
}

// Table keys are 64-bit: SplitMix64 is a bijection, so distinct indices
// give distinct keys, and the value is derived from the key.
func tableKey(seed, j uint64) uint64 { return hashfn.SplitMix64(j + seed<<32) }
func tableVal(key uint64) uint64     { return key ^ 0x5555555555555555 }
