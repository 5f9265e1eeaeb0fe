package blockcheck_test

import (
	"testing"

	"cuckoohash/internal/analysis/analysistest"
	"cuckoohash/internal/analysis/blockcheck"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t,
		[]string{
			analysistest.Dir("stripelib"),
			analysistest.Dir("htmlib"),
			analysistest.Dir("blockchecktest"),
		},
		blockcheck.Analyzer)
}

// TestTxnGolden holds transaction bodies to the rollback rules: nothing
// reachable from one may do what an abort cannot undo.
func TestTxnGolden(t *testing.T) {
	analysistest.Run(t,
		[]string{analysistest.Dir("htmlib"), analysistest.Dir("txnbodytest")},
		blockcheck.Analyzer)
}
