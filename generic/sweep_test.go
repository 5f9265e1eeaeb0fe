package generic

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// The alternate-bucket sweep, the evidence for deriving a key's second
// bucket from its tag (DESIGN.md §8): a single-threaded model of
// the table's fill — buckets of B tags, the same BFS with the same budget,
// the production tagOf and altOf — under four rules for a key's second
// bucket, filled with random hashes to the first refusal.
//
//	UPDATE_GOLDEN=1 go test ./generic -run TestAltBucketSweep
//
// (the variable server/testdata's goldens are regenerated with) runs the
// full sweep, 20 fills per cell, some fifteen seconds, and rewrites sweepFile;
// otherwise the test runs the two small sizes a few times and holds the
// adopted rule to the full hash's load.
const sweepFile = "../results/SWEEP_altbucket.txt"

// altRule is one way to find an entry's other bucket from the bucket it is
// in; h is the entry's full hash, of which only the first rule may read more
// than the tag.
type altRule struct {
	name string
	alt  func(b, h, mask uint64, assoc int) uint64
}

// pageMask is the bucket mask of a page of that many bytes of slot and tag
// arrays (nine bytes a slot), cut down to a power of two of buckets and to
// the table.
func pageMask(pageBytes, mask uint64, assoc int) uint64 {
	buckets := uint64(1)
	for buckets*2*uint64(assoc)*9 <= pageBytes {
		buckets <<= 1
	}
	return min(buckets-1, mask)
}

var altRules = []altRule{
	{"full hash", func(b, h, mask uint64, _ int) uint64 { // the rule until PR 22
		b1 := h & mask
		b2 := (h >> 32) * 0xC2B2AE3D27D4EB4F >> 32 & mask
		if b2 == b1 {
			b2 = (b2 ^ 1) & mask
		}
		if b == b1 {
			return b2
		}
		return b1
	}},
	{"b1^off(tag)", func(b, h, mask uint64, _ int) uint64 { return altOf(b, tagOf(h), mask) }},
	{"  in 64 KB pages", func(b, h, mask uint64, assoc int) uint64 {
		return altOf(b, tagOf(h), pageMask(64<<10, mask, assoc))
	}},
	{"  in 4 KB pages", func(b, h, mask uint64, assoc int) uint64 {
		return altOf(b, tagOf(h), pageMask(4<<10, mask, assoc))
	}},
}

type sweepFill struct {
	load, displacements, meanPath float64
	maxPath                       int
}

// modelFill fills a model table of that shape under rule to its first
// refusal. A slot holds its entry's hash (0 = empty); hashes come from a
// splitmix64 stream started at seed.
func modelFill(rule altRule, assoc int, slots, seed uint64) sweepFill {
	buckets := slots / uint64(assoc)
	mask := buckets - 1
	table := make([]uint64, slots)
	free := func(b uint64) int {
		for s, h := range table[b*uint64(assoc) : (b+1)*uint64(assoc)] {
			if h == 0 {
				return s
			}
		}
		return -1
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
		b1 := h & mask
		b2 := rule.alt(b1, h, mask, assoc)
		if s := free(b1); s >= 0 {
			table[b1*uint64(assoc)+uint64(s)] = h
			continue
		}
		if s := free(b2); s >= 0 {
			table[b2*uint64(assoc)+uint64(s)] = h
			continue
		}
		// search's BFS: same roots, same budget, same queue bound.
		nodes = append(nodes[:0], node{bucket: b1, parent: -1}, node{bucket: b2, parent: -1})
		found, examined := -1, 0
		for qi := 0; qi < len(nodes) && examined < maxSearchSlots; qi++ {
			b := nodes[qi].bucket
			examined += assoc
			if free(b) >= 0 {
				found = qi
				break
			}
			if len(nodes)+assoc > maxSearchSlots+2 {
				continue
			}
			for s := 0; s < assoc; s++ {
				nodes = append(nodes, node{bucket: rule.alt(b, table[b*uint64(assoc)+uint64(s)], mask, assoc), parent: int32(qi), slot: int8(s)})
			}
		}
		if found < 0 {
			break
		}
		// shift: the hole travels from the free slot back to a root.
		hole := nodes[found].bucket*uint64(assoc) + uint64(free(nodes[found].bucket))
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

func TestAltBucketSweep(t *testing.T) {
	sizes, trials := []uint64{2048, 32768}, 4
	full := os.Getenv("UPDATE_GOLDEN") != ""
	if full {
		sizes, trials = []uint64{2048, 32768, 1 << 20}, 20
	}
	var out strings.Builder
	fmt.Fprintf(&out, "alternate-bucket sweep: model fill to first refusal, BFS budget %d slots, %d fills per cell (mean, +- one standard deviation of the load)\n", maxSearchSlots, trials)
	fmt.Fprintf(&out, "%-2s %8s  %-18s %7s %8s %14s %10s %9s\n", "B", "slots", "second bucket", "load", "+-", "displ/insert", "mean path", "max path")
	for _, assoc := range []int{4, 8} {
		for _, slots := range sizes {
			loads := map[string]float64{}
			for _, rule := range altRules {
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
			// The adopted rule gives up no load against the rule it replaced.
			if full, tag := loads["full hash"], loads["b1^off(tag)"]; tag < full-0.01 {
				t.Errorf("B=%d %d slots: first refusal at %.4f with the tag's bucket, %.4f with the full hash", assoc, slots, tag, full)
			}
		}
	}
	t.Log("\n" + out.String())
	if full {
		if err := os.WriteFile(sweepFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
