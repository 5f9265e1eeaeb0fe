package generic

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"strings"
	"testing"
)

// The alternate-bucket sweep, the evidence for deriving a key's second
// bucket from its tag (DESIGN.md §8): a single-threaded model of
// the table's fill — buckets of B tags, the same BFS with the same budget,
// the production twoBuckets, tagOf and altOf — under six rules for a key's
// second bucket, filled with random hashes to the first refusal.
//
//	make sweep
//
// (UPDATE_GOLDEN=1 go test ./generic -run TestAltBucketSweep, the variable
// server/testdata's goldens are regenerated with) runs the full sweep, 20
// fills per cell, about half a minute, and rewrites sweepFile; otherwise the
// test runs the small sizes a few times and holds the adopted rule to the
// full hash's load. The model is seeded, so the file changes only when a
// rule does.
const sweepFile = "../results/SWEEP_altbucket.txt"

// altRule is one way to place a key with hash h in a table of n buckets:
// its first bucket, and the other bucket of an entry sitting in bucket b, of
// which only the full-hash rule may read more of h than the tag. pow2 rules
// are defined only where n is a power of two.
type altRule struct {
	name  string
	pow2  bool
	first func(h, n uint64) uint64
	alt   func(b, h, n uint64, assoc int) uint64
}

// productionFirst is the table's own first bucket.
func productionFirst(h, n uint64) uint64 {
	b1, _ := twoBuckets(h, n)
	return b1
}

// inPages confines the adopted rule to pages of that many bytes of slot and
// tag arrays (nine bytes a slot): an entry's other bucket is its reflection
// within its own page, the last page taking what is left of the table.
func inPages(pageBytes uint64) func(b, h, n uint64, assoc int) uint64 {
	return func(b, h, n uint64, assoc int) uint64 {
		p := min(n, max(2, pageBytes/(9*uint64(assoc))&^1))
		base := b / p * p
		return base + altOf(b-base, tagOf(h), min(p, n-base))
	}
}

var altRules = []altRule{
	{"full hash", false, productionFirst, func(b, h, n uint64, _ int) uint64 {
		b1 := productionFirst(h, n)
		b2, _ := bits.Mul64(h<<32, n) // the hash's low half: bits b1 barely reads
		if b2 == b1 {
			b2 = (b2 + 1) % n
		}
		if b == b1 {
			return b2
		}
		return b1
	}},
	{"c(tag)-b mod n", false, productionFirst, func(b, h, n uint64, _ int) uint64 { return altOf(b, tagOf(h), n) }},
	// The rule it replaced, which needs a power-of-two n: the hash's low
	// bits, and the first xor a nonzero offset hashed from the tag.
	{"b1^off(tag)", true, func(h, n uint64) uint64 { return h & (n - 1) }, func(b, h, n uint64, _ int) uint64 {
		off := uint64(tagOf(h)) * 0xC2B2AE3D27D4EB4F >> 32 & (n - 1)
		return b ^ (off + (off-1)>>63)
	}},
	// The adopted rule with c a single multiply of the tag, linear in it.
	{"  c linear in tag", false, productionFirst, func(b, h, n uint64, _ int) uint64 {
		c, _ := bits.Mul64(uint64(tagOf(h))*0x9E3779B97F4A7C15, n)
		if c |= 1; b > c {
			c += n
		}
		return c - b
	}},
	{"  in 64 KB pages", false, productionFirst, inPages(64 << 10)},
	{"  in 4 KB pages", false, productionFirst, inPages(4 << 10)},
}

type sweepFill struct {
	load, displacements, meanPath float64
	maxPath                       int
}

// modelFill fills a model table of that shape under rule to its first
// refusal, placing as the table does: a key with room in either bucket
// takes the emptier one, its first on a tie. A slot holds its entry's hash
// (0 = empty); hashes come from a splitmix64 stream started at seed.
func modelFill(rule altRule, assoc int, slots, seed uint64) sweepFill {
	buckets := slots / uint64(assoc)
	table := make([]uint64, slots)
	// free returns bucket b's first empty slot (-1 if none) and how many
	// are empty.
	free := func(b uint64) (first, n int) {
		first = -1
		for s, h := range table[b*uint64(assoc) : (b+1)*uint64(assoc)] {
			if h == 0 {
				if first < 0 {
					first = s
				}
				n++
			}
		}
		return first, n
	}
	type node struct {
		bucket uint64
		parent int32
		slot   int8
	}
	nodes := make([]node, 0, maxSearchSlots+2)
	var inserts, displaced, paths, pathSum uint64
	maxPath := 0
	for x := seed; ; inserts++ {
		x += 0x9E3779B97F4A7C15
		h := x
		h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
		h = (h ^ h>>27) * 0x94D049BB133111EB
		if h ^= h >> 31; h == 0 {
			h = 1 // 0 is the model's empty slot
		}
		b1 := rule.first(h, buckets)
		b2 := rule.alt(b1, h, buckets, assoc)
		s1, n1 := free(b1)
		if s2, n2 := free(b2); n2 > n1 {
			table[b2*uint64(assoc)+uint64(s2)] = h
			continue
		}
		if n1 > 0 {
			table[b1*uint64(assoc)+uint64(s1)] = h
			continue
		}
		// search's BFS: same roots, same budget, same queue bound.
		nodes = append(nodes[:0], node{bucket: b1, parent: -1}, node{bucket: b2, parent: -1})
		found, examined := -1, 0
		for qi := 0; qi < len(nodes) && examined < maxSearchSlots; qi++ {
			b := nodes[qi].bucket
			examined += assoc
			if s, _ := free(b); s >= 0 {
				found = qi
				break
			}
			if len(nodes)+assoc > maxSearchSlots+2 {
				continue
			}
			for s := 0; s < assoc; s++ {
				nodes = append(nodes, node{bucket: rule.alt(b, table[b*uint64(assoc)+uint64(s)], buckets, assoc), parent: int32(qi), slot: int8(s)})
			}
		}
		if found < 0 {
			break
		}
		// shift: the hole travels from the free slot back to a root.
		s, _ := free(nodes[found].bucket)
		hole := nodes[found].bucket*uint64(assoc) + uint64(s)
		length := 0
		for i := found; nodes[i].parent >= 0; i = int(nodes[i].parent) {
			from := nodes[nodes[i].parent].bucket*uint64(assoc) + uint64(nodes[i].slot)
			table[hole], table[from] = table[from], 0
			hole = from
			length++
		}
		table[hole] = h
		displaced += uint64(length)
		paths++
		pathSum += uint64(length)
		maxPath = max(maxPath, length)
	}
	return sweepFill{
		load:          float64(inserts) / float64(slots),
		displacements: float64(displaced) / float64(inserts),
		meanPath:      float64(pathSum) / float64(max(paths, 1)),
		maxPath:       maxPath,
	}
}

// TestAltBucketSweep runs the model at the sizes a cuckood shard takes —
// 2 048 slots (wire-set-evict's cap), 3 072 (a non-power-of-two step of
// growth by half), 27 648 and 32 768 (where the benchmark's prefill leaves a
// shard, growing by half and by doubling) — and, for the full sweep, 2^20.
func TestAltBucketSweep(t *testing.T) {
	sizes, trials := []uint64{2048, 3072, 27648}, 4
	full := os.Getenv("UPDATE_GOLDEN") != ""
	if full {
		sizes, trials = []uint64{2048, 3072, 27648, 32768, 1 << 20}, 20
	}
	var out, versus strings.Builder
	fmt.Fprintf(&out, "alternate-bucket sweep: model fill to first refusal, BFS budget %d slots, %d fills per cell (mean, +- one standard deviation of the load)\n", maxSearchSlots, trials)
	fmt.Fprintf(&out, "%-2s %8s  %-18s %7s %8s %14s %10s %9s\n", "B", "slots", "second bucket", "load", "+-", "displ/insert", "mean path", "max path")
	for _, assoc := range []int{4, 8} {
		for _, slots := range sizes {
			loads := map[string]float64{}
			for _, rule := range altRules {
				if n := slots / uint64(assoc); rule.pow2 && n&(n-1) != 0 {
					continue
				}
				var sum sweepFill
				var loadSq float64
				for trial := 0; trial < trials; trial++ {
					f := modelFill(rule, assoc, slots, uint64(trial+1)*0xD1B54A32D192ED03)
					sum.load, loadSq = sum.load+f.load, loadSq+f.load*f.load
					sum.displacements += f.displacements
					sum.meanPath += f.meanPath
					sum.maxPath = max(sum.maxPath, f.maxPath)
				}
				n := float64(trials)
				mean := sum.load / n
				loads[rule.name] = mean
				fmt.Fprintf(&out, "%-2d %8d  %-18s %7.4f %8.4f %14.3f %10.2f %9d\n", assoc, slots, rule.name,
					mean, math.Sqrt(max(0, loadSq/n-mean*mean)), sum.displacements/n, sum.meanPath/n, sum.maxPath)
			}
			// The adopted rule gives up no load against a second hash.
			adopted := loads["c(tag)-b mod n"]
			if full := loads["full hash"]; adopted < full-0.01 {
				t.Errorf("B=%d %d slots: first refusal at %.4f with the tag's bucket, %.4f with the full hash", assoc, slots, adopted, full)
			}
			if xor, ok := loads["b1^off(tag)"]; ok {
				fmt.Fprintf(&versus, "B=%d %8d slots: c(tag)-b mod n %.4f, b1^off(tag) %.4f, difference %+.4f\n", assoc, slots, adopted, xor, adopted-xor)
			}
		}
	}
	fmt.Fprintf(&out, "\nthe adopted rule against the one it replaced, where both are defined (load at first refusal):\n%s", versus.String())
	t.Log("\n" + out.String())
	if full {
		if err := os.WriteFile(sweepFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
