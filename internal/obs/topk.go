package obs

import (
	"sort"
	"sync"
)

// TopK is a space-saving top-K sketch (Metwally et al., "Efficient
// computation of frequent and top-k elements in data streams"): it
// tracks at most k counters; a new key evicts the current minimum and
// inherits its count as overestimation error. For a zipf-skewed stream
// the true heavy hitters are guaranteed to be present once their
// frequency exceeds N/k.
//
// Touch is called on the sampled request path only, so a mutex is fine;
// the map-hit fast path does not allocate (the m[string(b)] lookup
// compiles to a no-copy probe), and an eviction allocates only the new
// key's string. The entries live in one slice the map indexes, so finding
// the minimum is a scan of k contiguous entries, not a map iteration.
// Both are made by the first Touch, so a sketch no request reaches holds
// no entries.
type TopK struct {
	mu      sync.Mutex
	k       int
	m       map[string]int // key -> index into entries; nil until the first Touch
	entries []tkEntry
}

type tkEntry struct {
	key   string
	count uint64
	err   uint64
}

// NewTopK returns a sketch tracking at most k keys.
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = 1
	}
	return &TopK{k: k}
}

// Touch counts one occurrence of key. The []byte form avoids a string
// allocation when the key is already tracked (the common case for the
// heavy hitters the sketch exists to find).
func (t *TopK) Touch(key []byte) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if i, ok := t.m[string(key)]; ok {
		t.entries[i].count++
		t.mu.Unlock()
		return
	}
	if len(t.entries) < t.k {
		if t.m == nil {
			t.m = make(map[string]int)
		}
		k := string(key)
		t.m[k] = len(t.entries)
		t.entries = append(t.entries, tkEntry{key: k, count: 1})
		t.mu.Unlock()
		return
	}
	// Evict the minimum; the newcomer takes over its slot and inherits
	// its count as error bound.
	min := 0
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].count < t.entries[min].count {
			min = i
		}
	}
	e := &t.entries[min]
	delete(t.m, e.key)
	e.key = string(key)
	e.err = e.count
	e.count++
	t.m[e.key] = min
	t.mu.Unlock()
}

// TopKItem is one sketch entry: Count overestimates the true frequency
// by at most Err.
type TopKItem struct {
	Key   string
	Count uint64
	Err   uint64
}

// Items returns the tracked keys sorted by count descending (ties by
// key, so output is deterministic).
func (t *TopK) Items() []TopKItem {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TopKItem, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, TopKItem{Key: e.key, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// MergeTopK folds several sketches' items into one ranking, summing
// counts for keys present in more than one (each conn-shard sketch sees
// a disjoint slice of traffic, so summing is exact for tracked keys).
func MergeTopK(sketches []*TopK) []TopKItem {
	acc := map[string]*TopKItem{}
	for _, t := range sketches {
		for _, it := range t.Items() {
			if e, ok := acc[it.Key]; ok {
				e.Count += it.Count
				e.Err += it.Err
			} else {
				c := it
				acc[it.Key] = &c
			}
		}
	}
	out := make([]TopKItem, 0, len(acc))
	for _, e := range acc {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}
