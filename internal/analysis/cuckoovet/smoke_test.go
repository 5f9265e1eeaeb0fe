package cuckoovet_test

import (
	"os"
	"regexp"
	"testing"

	"cuckoohash/internal/analysis/cuckoovet"
	"cuckoohash/internal/analysis/driver"
)

// TestTreeClean runs the full analyzer suite over every package of the
// module and requires zero unsuppressed findings: the concurrency
// invariants the suite encodes (§4.2 atomic discipline, §4.4 lock
// ordering, Eq. 1 snapshot/validate, P1 padding, no blocking in lock-free
// regions and nothing irreversible in §5 transaction bodies, allocation
// freedom of hot paths and span methods) must hold everywhere, always. A
// regression that reintroduces an unordered lock pair or a plain atomic
// access fails this test and CI.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog, err := driver.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings, err := driver.Run(prog, cuckoovet.Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestEveryAnalyzerIsDocumented holds docs/ANALYSIS.md to the registry:
// every analyzer has a "### `name`" section, and every such section names
// a registered analyzer, so a folded or deleted one cannot leave its
// documentation behind.
func TestEveryAnalyzerIsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../../docs/ANALYSIS.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^### `([^`]+)`").FindAllStringSubmatch(string(doc), -1) {
		sections[m[1]] = true
	}
	for _, a := range cuckoovet.Analyzers() {
		if !sections[a.Name] {
			t.Errorf("analyzer %s has no ### `%s` section in docs/ANALYSIS.md", a.Name, a.Name)
		}
		delete(sections, a.Name)
	}
	for name := range sections {
		t.Errorf("docs/ANALYSIS.md has a ### `%s` section, but no analyzer of that name is registered", name)
	}
}
