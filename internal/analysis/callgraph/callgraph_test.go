package callgraph_test

import (
	"go/types"
	"strings"
	"testing"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/callgraph"
	"cuckoohash/internal/analysis/driver"
)

// loadGraph runs the callgraph analyzer over the callgraphtest fixture
// and captures the per-package Graph plus the pass (for fact access).
func loadGraph(t *testing.T) (*callgraph.Graph, *analysis.Pass) {
	t.Helper()
	var g *callgraph.Graph
	var captured *analysis.Pass
	probe := &analysis.Analyzer{
		Name:     "probe",
		Doc:      "capture the callgraph result",
		Requires: []*analysis.Analyzer{callgraph.Analyzer},
		Run: func(pass *analysis.Pass) (any, error) {
			g, _ = pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)
			captured = pass
			return nil, nil
		},
	}
	prog, err := driver.LoadDirs("../testdata/src/callgraphtest")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if _, err := driver.Run(prog, []*analysis.Analyzer{probe}); err != nil {
		t.Fatalf("running callgraph: %v", err)
	}
	if g == nil || captured == nil {
		t.Fatal("probe did not capture a callgraph result")
	}
	return g, captured
}

// sumByName finds a declared function's summary by display name.
func sumByName(t *testing.T, g *callgraph.Graph, name string) *callgraph.Summary {
	t.Helper()
	for _, sum := range g.Funcs {
		if sum.Name == name {
			return sum
		}
	}
	t.Fatalf("no summary for %s", name)
	return nil
}

func TestInterfaceDispatch(t *testing.T) {
	g, pass := loadGraph(t)
	sum := sumByName(t, g, "callgraphtest.dispatch")
	if len(sum.Calls) != 1 {
		t.Fatalf("dispatch: got %d call edges, want 1", len(sum.Calls))
	}
	call := sum.Calls[0]
	if call.Iface == nil || call.Iface.Name() != "ring" {
		t.Fatalf("dispatch edge is not an interface call on ring: %+v", call)
	}
	impls := callgraph.Implementers(pass, call.Iface, nil)
	var names []string
	for _, fn := range impls {
		names = append(names, callgraph.DisplayName(fn))
	}
	if len(impls) != 2 {
		t.Fatalf("Implementers(ring) = %v, want bell and gong", names)
	}
	want := map[string]bool{"(*bell).ring": true, "(*gong).ring": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected implementer %s", n)
		}
	}
}

func TestMethodValueThroughLocal(t *testing.T) {
	g, _ := loadGraph(t)
	sum := sumByName(t, g, "callgraphtest.methodValue")
	var resolved []string
	for _, call := range sum.Calls {
		if call.Callee != nil {
			resolved = append(resolved, callgraph.DisplayName(call.Callee))
		}
	}
	if len(resolved) != 1 || resolved[0] != "(*widget).inc" {
		t.Fatalf("methodValue resolved callees = %v, want [(*widget).inc]", resolved)
	}
}

func TestCallsThroughAliases(t *testing.T) {
	g, _ := loadGraph(t)
	var got []string
	for _, call := range sumByName(t, g, "callgraphtest.aliases").Calls {
		switch {
		case call.Callee != nil:
			got = append(got, callgraph.DisplayName(call.Callee))
		case call.Unknown:
			got = append(got, "unknown")
		default:
			got = append(got, "other")
		}
	}
	want := []string{"callgraphtest.named", "(*widget).inc", "(*widget).inc", "strings.ToUpper", "unknown", "unknown", "callgraphtest.ident", "unknown"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("aliases edges = %v, want %v", got, want)
	}
}

func TestMutualRecursionEdges(t *testing.T) {
	g, _ := loadGraph(t)
	even := sumByName(t, g, "callgraphtest.even")
	odd := sumByName(t, g, "callgraphtest.odd")
	if len(even.Calls) != 1 || even.Calls[0].Callee != odd.Fn {
		t.Fatalf("even's edge does not resolve to odd: %+v", even.Calls)
	}
	if len(odd.Calls) != 1 || odd.Calls[0].Callee != even.Fn {
		t.Fatalf("odd's edge does not resolve to even: %+v", odd.Calls)
	}
}

func TestStructFieldFuncs(t *testing.T) {
	g, pass := loadGraph(t)
	sum := sumByName(t, g, "callgraphtest.invokeField")
	if len(sum.Calls) != 1 {
		t.Fatalf("invokeField: got %d call edges, want 1", len(sum.Calls))
	}
	call := sum.Calls[0]
	if call.Field == nil || call.Field.Name() != "onPing" {
		t.Fatalf("invokeField edge is not a field call on onPing: %+v", call)
	}
	var ff callgraph.FieldFuncs
	if !pass.ImportObjectFact(call.Field, &ff) {
		t.Fatal("no FieldFuncs fact on onPing despite in-module stores")
	}
	if ff.Opaque {
		t.Error("onPing marked opaque; both stores are resolvable")
	}
	if len(ff.Funcs) != 1 || ff.Funcs[0].Name() != "named" {
		t.Errorf("onPing stored funcs = %v, want [named]", ff.Funcs)
	}
	if len(ff.Lits) != 1 {
		t.Errorf("onPing stored literals = %d, want 1", len(ff.Lits))
	}
}

func TestGenericOriginNormalization(t *testing.T) {
	g, pass := loadGraph(t)
	sum := sumByName(t, g, "callgraphtest.generic")
	var callees []*types.Func
	for _, call := range sum.Calls {
		if call.Callee != nil {
			callees = append(callees, call.Callee)
		}
	}
	if len(callees) != 2 {
		t.Fatalf("generic: got %d static callees, want 2", len(callees))
	}
	if callees[0] != callees[1] {
		t.Errorf("pair[int].first and pair[string].first resolve to distinct funcs: %v vs %v",
			callees[0].FullName(), callees[1].FullName())
	}
	if callees[0] != callees[0].Origin() {
		t.Errorf("callee %v is not Origin-normalized", callees[0].FullName())
	}
	if callgraph.Lookup(pass, callees[0]) != callgraph.Lookup(pass, callees[1]) {
		t.Error("instantiations look up different summaries")
	}
	// Exactly one summary fact exists for the origin declaration.
	count := 0
	for _, of := range pass.AllObjectFacts(&callgraph.FuncFact{}) {
		if fn, ok := of.Object.(*types.Func); ok && strings.HasSuffix(fn.FullName(), ".first") {
			count++
		}
	}
	if count != 1 {
		t.Errorf("got %d summary facts for pair.first, want exactly 1", count)
	}
}

// TestOpKindNames: every operation kind a diagnostic can name has a name
// of its own.
func TestOpKindNames(t *testing.T) {
	seen := make(map[string]callgraph.OpKind)
	for k := callgraph.OpMake; k <= callgraph.OpDelete; k++ {
		name := k.String()
		if prev, dup := seen[name]; dup || name == "operation" {
			t.Errorf("OpKind %d prints as %q, like %d", k, name, prev)
		}
		seen[name] = k
	}
	if got := (callgraph.OpDelete + 1).String(); got != "operation" {
		t.Errorf("unknown OpKind prints as %q", got)
	}
}
