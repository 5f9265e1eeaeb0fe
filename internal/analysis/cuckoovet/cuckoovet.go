// Package cuckoovet is the registry of this repository's analyzers: the
// single list the cmd/cuckoovet multichecker, the CI gate and the smoke
// test all run, so the three can never drift apart.
package cuckoovet

import (
	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/align64"
	"cuckoohash/internal/analysis/allocfree"
	"cuckoohash/internal/analysis/atomicfield"
	"cuckoohash/internal/analysis/blockcheck"
	"cuckoohash/internal/analysis/genercheck"
	"cuckoohash/internal/analysis/lockorder"
	"cuckoohash/internal/analysis/padcheck"
	"cuckoohash/internal/analysis/seqlock"
)

// Analyzers returns the full suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer,
		atomicfield.Analyzer,
		align64.Analyzer,
		padcheck.Analyzer,
		seqlock.Analyzer,
		genercheck.Analyzer,
		allocfree.Analyzer,
		blockcheck.Analyzer,
	}
}
