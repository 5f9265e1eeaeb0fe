// Package prefetch is the prefetch of the paper's §4.3.2: a hint that the
// cache line holding a word will be read soon, issued early enough that
// its DRAM miss overlaps other work instead of stalling the read that
// needs it. On amd64 Line is one PREFETCHT0 instruction; it reads nothing
// into a register, so it costs no load slot waiting on the line and never
// faults. Elsewhere Go has no prefetch instruction to call, and Line is
// an early load whose value is discarded: it warms the line at the price
// of one real load.
package prefetch
