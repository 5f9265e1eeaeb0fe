package driver_test

import (
	"fmt"
	"strings"
	"testing"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/driver"
	"cuckoohash/internal/analysis/lockorder"
)

// TestAllowDirectives checks the suppression machinery end to end: a
// reasoned directive silences the finding on the next line, while unknown
// check names, missing reasons and unused directives are reported under
// the allowcheck pseudo-check.
func TestAllowDirectives(t *testing.T) {
	prog, err := driver.LoadDirs("../testdata/src/stripelib", "../testdata/src/allowtest")
	if err != nil {
		t.Fatalf("loading allowtest: %v", err)
	}
	findings, err := driver.Run(prog, []*analysis.Analyzer{lockorder.Analyzer})
	if err != nil {
		t.Fatalf("running lockorder: %v", err)
	}
	want := []struct{ check, substr string }{
		{"lockorder", "while stripe lock"},              // unsuppressed double lock
		{"allowcheck", `unknown check "nosuchcheck"`},   // bogus check name
		{"allowcheck", "must carry a reason"},           // reasonless directive
		{"allowcheck", "suppresses nothing; delete it"}, // unused directive
	}
	if len(findings) != len(want) {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(findings), len(want))
	}
	for _, w := range want {
		found := false
		for _, f := range findings {
			if f.Check == w.check && strings.Contains(f.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			for _, f := range findings {
				t.Logf("finding: %s", f)
			}
			t.Errorf("no %s finding containing %q", w.check, w.substr)
		}
	}
	// The reasoned directive must have suppressed the double lock in
	// suppressedOwnLineDirective: exactly one lockorder finding survives.
	n := 0
	for _, f := range findings {
		if f.Check == "lockorder" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("got %d lockorder findings, want 1 (the unsuppressed one)", n)
	}
	// The printed form cuckoovet emits: position, [check], message.
	for _, f := range findings {
		if want := fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message); f.String() != want {
			t.Errorf("finding prints as %q, want %q", f.String(), want)
		}
	}
	if got := lockorder.Analyzer.String(); got != "lockorder" {
		t.Errorf("lockorder.Analyzer prints as %q", got)
	}
}
