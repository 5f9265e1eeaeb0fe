// Package workload generates the key streams and operation mixes used by
// the paper's evaluation (§6): uniform random 8-byte keys, configurable
// insert/lookup ratios (100%, 50%, 10% insert), and fill-to-occupancy
// drivers. Generators are deterministic per (seed, thread) so experiments
// are reproducible, and each thread owns its generator state so workload
// generation itself never causes cross-core traffic (principle P1).
package workload

import (
	"math/rand"

	"cuckoohash/internal/hashfn"
)

// Rand is a xorshift128+ pseudo-random generator: tiny state, no
// allocation, statistically strong enough for key generation, and far
// cheaper than math/rand so generation does not mask table throughput.
type Rand struct {
	s0, s1 uint64
}

// NewRand creates a generator seeded deterministically from seed. Two
// generators with different seeds produce effectively independent streams.
func NewRand(seed uint64) *Rand {
	// Run the seed through splitmix64 twice per the xoroshiro authors'
	// recommendation; avoid the all-zero state.
	s0 := hashfn.SplitMix64(seed)
	s1 := hashfn.SplitMix64(s0)
	if s0 == 0 && s1 == 0 {
		s1 = 1
	}
	return &Rand{s0: s0, s1: s1}
}

// Next returns the next 64-bit pseudo-random value.
func (r *Rand) Next() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a pseudo-random value in [0, n). n must be positive.
func (r *Rand) Intn(n uint64) uint64 {
	return r.Next() % n
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Op is one table operation in a generated stream.
type Op uint8

const (
	// OpInsert inserts (or overwrites) a key.
	OpInsert Op = iota
	// OpLookup reads a key.
	OpLookup
	// OpDelete removes a key.
	OpDelete
)

// Mix describes an operation mix as fractions that must sum to at most 1;
// the remainder is lookups.
type Mix struct {
	InsertFrac float64
	DeleteFrac float64
}

// Common mixes from the paper's evaluation.
var (
	InsertOnly = Mix{InsertFrac: 1.0}
	Mix5050    = Mix{InsertFrac: 0.5}
	Mix1090    = Mix{InsertFrac: 0.1}
	LookupOnly = Mix{}
)

// Name returns a short label such as "100% Insert".
func (m Mix) Name() string {
	switch m {
	case InsertOnly:
		return "100% Insert"
	case Mix5050:
		return "50% Insert"
	case Mix1090:
		return "10% Insert"
	case LookupOnly:
		return "100% Lookup"
	}
	return "custom mix"
}

// OpGen draws operations from a mix with a per-thread generator.
type OpGen struct {
	rnd       *Rand
	insertCut uint64
	deleteCut uint64
}

// NewOpGen creates a deterministic operation generator for one thread.
func NewOpGen(mix Mix, seed uint64) *OpGen {
	const scale = 1 << 32
	ic := uint64(mix.InsertFrac * scale)
	dc := ic + uint64(mix.DeleteFrac*scale)
	return &OpGen{rnd: NewRand(seed), insertCut: ic, deleteCut: dc}
}

// Next returns the next operation in the stream.
func (g *OpGen) Next() Op {
	v := g.rnd.Next() & (1<<32 - 1)
	switch {
	case v < g.insertCut:
		return OpInsert
	case v < g.deleteCut:
		return OpDelete
	default:
		return OpLookup
	}
}

// KeyGen produces 64-bit keys. Implementations are not safe for concurrent
// use; create one per thread.
type KeyGen interface {
	// NextKey returns the next key to insert (fresh keys).
	NextKey() uint64
	// ExistingKey returns a key that has plausibly been inserted already,
	// for lookup operations.
	ExistingKey() uint64
}

// UniformKeys generates uniform random insert keys from a disjoint
// per-thread keyspace slice, and uniform lookups over the keys this thread
// has inserted so far. It matches the paper's "random mixed reads and
// writes" methodology: lookups hit keys that exist.
type UniformKeys struct {
	rnd      *Rand
	base     uint64 // start of this thread's key range
	inserted uint64 // keys handed out so far
	perm     uint64 // multiplicative scramble so keys are not sequential
}

// NewUniformKeys creates a generator for one thread. Distinct threads must
// use distinct thread indices so their fresh keys never collide.
func NewUniformKeys(seed uint64, thread int) *UniformKeys {
	return &UniformKeys{
		rnd:  NewRand(seed ^ uint64(thread)*0x9E3779B97F4A7C15),
		base: uint64(thread) << 40,
	}
}

// NextKey returns a fresh key unique across the generator's lifetime.
func (u *UniformKeys) NextKey() uint64 {
	u.inserted++
	// Scramble the counter so the table sees uniformly distributed keys,
	// but keep it invertible within the thread's 2^40 slice.
	return u.base | (hashfn.SplitMix64(u.inserted) & (1<<40 - 1))
}

// ExistingKey returns a key previously produced by NextKey, chosen
// uniformly. Before any insert it returns an arbitrary (likely absent) key.
func (u *UniformKeys) ExistingKey() uint64 {
	if u.inserted == 0 {
		return u.base
	}
	i := u.rnd.Intn(u.inserted) + 1
	return u.base | (hashfn.SplitMix64(i) & (1<<40 - 1))
}

// SequentialKeys generates consecutive integer keys; useful for worst-case
// hash tests and for deterministic table fills.
type SequentialKeys struct {
	next uint64
	rnd  *Rand
	base uint64
}

// NewSequentialKeys creates a sequential generator starting at base.
func NewSequentialKeys(base uint64) *SequentialKeys {
	return &SequentialKeys{next: base, base: base, rnd: NewRand(base)}
}

// NextKey returns base, base+1, ...
func (s *SequentialKeys) NextKey() uint64 {
	k := s.next
	s.next++
	return k
}

// ExistingKey returns a uniform key in [base, next).
func (s *SequentialKeys) ExistingKey() uint64 {
	if s.next == s.base {
		return s.base
	}
	return s.base + s.rnd.Intn(s.next-s.base)
}

// ZipfKeys generates keys with a Zipfian popularity distribution over a
// fixed universe, modelling skewed cache workloads. It uses the Gray et al.
// rejection-inversion-free approximation: rank = floor(N^U) biased by the
// exponent, which is accurate enough for benchmarking skew effects.
type ZipfKeys struct {
	rnd   *Rand
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipfKeys creates a Zipf generator over universe [0, n) with skew
// theta in (0, 1); theta ≈ 0.99 matches YCSB's default.
func NewZipfKeys(seed uint64, n uint64, theta float64) *ZipfKeys {
	if n == 0 {
		panic("workload: zipf universe must be non-empty")
	}
	if theta <= 0 || theta >= 1 {
		panic("workload: zipf theta must be in (0,1)")
	}
	z := &ZipfKeys{rnd: NewRand(seed), n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	// Direct sum for small n; sampled sum for large n (benchmark-grade
	// accuracy, avoids multi-second setup for 10^8 universes).
	if n <= 1<<20 {
		s := 0.0
		for i := uint64(1); i <= n; i++ {
			s += 1.0 / pow(float64(i), theta)
		}
		return s
	}
	s := zeta(1<<20, theta)
	// Integral approximation for the tail.
	a := float64(uint64(1) << 20)
	b := float64(n)
	s += (pow(b, 1-theta) - pow(a, 1-theta)) / (1 - theta)
	return s
}

func pow(x, y float64) float64 {
	// math.Pow wrapper kept separate so the hot path reads clearly.
	return mathPow(x, y)
}

// NextKey draws a key; popular keys are small ranks scrambled to spread
// them over the hash space.
func (z *ZipfKeys) NextKey() uint64 {
	u := z.rnd.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1.0:
		rank = 0
	case uz < 1.0+pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return hashfn.SplitMix64(rank)
}

// ExistingKey is identical to NextKey for Zipf workloads: the popular keys
// are the existing ones.
func (z *ZipfKeys) ExistingKey() uint64 { return z.NextKey() }

// ZipfSKeys draws ranks with Zipf exponent s > 1 over universe [0, n),
// the heavy-skew regime the Gray approximation in ZipfKeys cannot reach
// (its theta is capped below 1). At s = 1.2 a handful of ranks absorb
// most of the stream — the hot-counter workload the txn subsystem's
// split counters are built for (docs/TRANSACTIONS.md). Backed by
// math/rand's rejection-inversion Zipf sampler, seeded deterministically.
type ZipfSKeys struct {
	z *rand.Zipf
}

// NewZipfSKeys creates a generator over [0, n) with exponent s > 1.
func NewZipfSKeys(seed uint64, n uint64, s float64) *ZipfSKeys {
	if n == 0 {
		panic("workload: zipf universe must be non-empty")
	}
	if s <= 1 {
		panic("workload: zipf exponent s must be > 1 (use ZipfKeys for theta < 1)")
	}
	//nolint:gosec // deterministic workload generation, not cryptography
	r := rand.New(rand.NewSource(int64(hashfn.SplitMix64(seed))))
	return &ZipfSKeys{z: rand.NewZipf(r, s, 1, n-1)}
}

// Rank returns the unscrambled rank of the next draw: rank 0 is the
// hottest key.
func (z *ZipfSKeys) Rank() uint64 { return z.z.Uint64() }
