// Package cluster implements the two-choice placement ring behind
// cuckoocluster: the paper's core trick — every key has exactly two
// candidate buckets, and load is balanced by displacing items between
// them (§2, §4.3) — applied one level up. Every key hashes to two
// candidate *nodes*; writes go to the primary and spill to the alternate
// when the primary is overloaded or unhealthy, reads check the primary
// then the alternate, and a rebalance displaces keys from a hot node to
// each key's other choice exactly like a cuckoo kick-out. The same
// hashing discipline as the table itself is reused (internal/hashfn:
// one xxHash64 computation, two independent indices derived from it).
//
// Membership is static: a Ring is an ordered list of node addresses
// fixed at construction, and every client, server, and admin tool that
// shares (nodes, seed) computes identical placements. Growing or
// shrinking the fleet means constructing a new Ring and migrating keys
// to their new candidates (docs/CLUSTER.md).
package cluster

import (
	"errors"
	"fmt"
	"strings"

	"cuckoohash/internal/hashfn"
)

// ErrEmptyRing is returned when constructing a ring with no nodes.
var ErrEmptyRing = errors.New("cluster: ring has no nodes")

// Ring is an immutable, ordered set of node addresses plus the hash seed
// that fixes key placement. Safe for concurrent use (it is never mutated
// after construction).
type Ring struct {
	nodes []string
	index map[string]int
	seed  uint64
}

// New builds a ring over the given node addresses. Order matters — it is
// part of the placement function — so every participant must be
// configured with the same list in the same order and the same seed.
// Addresses must be non-empty, free of whitespace and commas (they
// travel inside the one-line MIGRATE verb), and unique.
func New(nodes []string, seed uint64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, ErrEmptyRing
	}
	r := &Ring{
		nodes: make([]string, len(nodes)),
		index: make(map[string]int, len(nodes)),
		seed:  seed,
	}
	for i, n := range nodes {
		if n == "" || strings.ContainsAny(n, " ,\r\n\t") {
			return nil, fmt.Errorf("cluster: invalid node address %q", n)
		}
		if _, dup := r.index[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate node address %q", n)
		}
		r.nodes[i] = n
		r.index[n] = i
	}
	return r, nil
}

// Parse builds a ring from a comma-separated address list, the form the
// MIGRATE verb and the -nodes flags carry.
func Parse(csv string, seed uint64) (*Ring, error) {
	var nodes []string
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	return New(nodes, seed)
}

// Len returns the node count.
func (r *Ring) Len() int { return len(r.nodes) }

// Seed returns the placement seed.
func (r *Ring) Seed() uint64 { return r.seed }

// Nodes returns a copy of the ordered node list.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Node returns the address at index i.
func (r *Ring) Node(i int) string { return r.nodes[i] }

// Index returns the position of addr in the ring, or -1 if absent.
func (r *Ring) Index(addr string) int {
	if i, ok := r.index[addr]; ok {
		return i
	}
	return -1
}

// CSV renders the ring as the comma-separated list the MIGRATE verb
// carries.
func (r *Ring) CSV() string { return strings.Join(r.nodes, ",") }

// Without returns a new ring with addr removed — the placement a drain
// uses: under it, every key maps to two surviving candidates, so moving
// each key to either one empties the drained node.
func (r *Ring) Without(addr string) (*Ring, error) {
	i := r.Index(addr)
	if i < 0 {
		return nil, fmt.Errorf("cluster: %q is not in the ring", addr)
	}
	nodes := make([]string, 0, len(r.nodes)-1)
	nodes = append(nodes, r.nodes[:i]...)
	nodes = append(nodes, r.nodes[i+1:]...)
	return New(nodes, r.seed)
}

// Candidates returns the indices of the key's two candidate nodes. The
// primary comes from the low bits of one xxHash64 computation; the
// alternate is derived by remixing the same hash (splitmix64) into a
// uniform choice over the remaining nodes, so the two candidates are
// always distinct whenever the ring has more than one node — the node-
// level analogue of hashfn.TwoBuckets. On a one-node ring both
// candidates are node 0.
func (r *Ring) Candidates(key string) (primary, alternate int) {
	//lint:allow cuckoovet:allocfree the []byte view of key does not escape XXHash64; short keys stay on the stack
	h := hashfn.XXHash64([]byte(key), r.seed)
	n := uint64(len(r.nodes))
	primary = int(h % n)
	if n == 1 {
		return primary, primary
	}
	// Remix rather than reuse: the low bits already chose the primary, so
	// a fresh scramble keeps the alternate independent of it. Drawing from
	// [0, n-1) and skipping the primary guarantees distinctness with a
	// uniform distribution over the other nodes.
	alternate = int(hashfn.SplitMix64(h) % (n - 1))
	if alternate >= primary {
		alternate++
	}
	return primary, alternate
}

// IsCandidate reports whether addr is one of the key's two candidate
// nodes — the MIGRATE selection predicate.
func (r *Ring) IsCandidate(key, addr string) bool {
	i := r.Index(addr)
	if i < 0 {
		return false
	}
	p, a := r.Candidates(key)
	return i == p || i == a
}

// Skew measures ring imbalance from per-node load figures (entry counts
// or load factors): (max - mean) / mean, i.e. how far the hottest node
// sits above the average. Zero loads give zero skew. A rebalance
// converges when Skew falls below the operator's watermark.
func Skew(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	mean := sum / float64(len(loads))
	if mean <= 0 {
		return 0
	}
	return (max - mean) / mean
}
