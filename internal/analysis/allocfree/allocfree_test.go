package allocfree_test

import (
	"testing"

	"cuckoohash/internal/analysis/allocfree"
	"cuckoohash/internal/analysis/analysistest"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t,
		[]string{analysistest.Dir("allocfreetest"), analysistest.Dir("allocfreeimpl")},
		allocfree.Analyzer)
}

// TestSpanGolden holds span-shaped types to the zero-cost-when-idle
// contract: every method is a root, and the clock waits for the guard.
func TestSpanGolden(t *testing.T) {
	analysistest.Run(t,
		[]string{analysistest.Dir("obslib"), analysistest.Dir("spantest")},
		allocfree.Analyzer)
}
